"""Ablation A10 — hot/cold tiered object store (aged-read latency).

The archival regime the paper targets (ingest once, read back months
later) collapses into one run: ingest a Table II-shaped small-file
population, let the lifecycle demoter push it to the capacity tier, then
replay an aged read mix with re-reads. The single-tier cold-S3 baseline
(``arkfs-cold``) pays the capacity store's first-byte latency on every
GET; the tiered configuration (``arkfs-tier``) pays it once per object —
the demand promotion — and serves the re-reads from the hot tier.

Shared by ``benchmarks/test_ablation_tiering.py`` (the acceptance gate)
and ``python -m repro.bench tier`` / ``--tier`` (figure regeneration).
"""

from __future__ import annotations

from typing import Dict, List

from ..objectstore.profiles import MiB
from ..posix import ROOT_CREDS
from ..sim.engine import Simulator
from ..workloads import run_phase
from .harness import NET_50G, build

__all__ = ["tier_aged_read", "tier_ablation", "format_tier_report"]

#: Deliberately small client data cache: the aged-read phase must hit the
#: object store, not local DRAM, or both configurations measure the same
#: thing. Both sides of the ablation use the same value.
AGED_CACHE = 4 * MiB

#: Aged working set per process (files), and how many passes the read mix
#: makes over it. Pass one is all cold misses (the demand promotions);
#: passes two and up are the re-reads the hot tier exists to absorb.
AGED_FILES = 64
REREADS = 4


def tier_aged_read(kind: str, scale, n_clients: int = 2,
                   procs: int = 4) -> Dict:
    """Ingest, age, then replay the read mix on one configuration.

    Returns a result dict with the ingest rate, per-read latency stats,
    and (for the tiered build) the tier counters and cost savings.
    """
    files = scale.tar_images_per_proc
    size = int(scale.tar_image_kb * 1024)
    aged = min(AGED_FILES, files)
    sim = Simulator()
    cluster, _ = build(kind, sim, n_clients=n_clients, net=NET_50G,
                       cache_capacity=AGED_CACHE)

    def setup():
        yield from cluster.client(0).mkdir(ROOT_CREDS, "/tar")
        for c in range(n_clients):
            yield from cluster.client(c).mkdir(ROOT_CREDS, f"/tar/c{c}")

    run_phase(sim, [sim.process(setup())])

    def writer(c, p):
        client = cluster.client(c)
        payload = bytes([(c * procs + p) % 251 + 1]) * size
        for i in range(files):
            yield from client.write_file(
                ROOT_CREDS, f"/tar/c{c}/p{p}-f{i}", payload)

    t0 = sim.now
    run_phase(sim, [sim.process(writer(c, p))
                    for c in range(n_clients) for p in range(procs)])
    run_phase(sim, [sim.process(cluster.client(c).sync())
                    for c in range(n_clients)])
    ingest_elapsed = sim.now - t0

    # Age the population: the maintenance tickers drain any staging
    # remainder and the demoter walks the LRU back under the low
    # watermark, so the oldest files — the aged working set below — are
    # cold-only by the time the read mix starts.
    sim.run(until=sim.now + 3.0)
    run_phase(sim, [sim.process(cluster.client(c).drop_caches())
                    for c in range(n_clients)])

    lats: List[float] = []

    def reader(c, p):
        client = cluster.client(c)
        for _ in range(REREADS):
            for i in range(aged):
                r0 = sim.now
                data = yield from client.read_file(
                    ROOT_CREDS, f"/tar/c{c}/p{p}-f{i}")
                lats.append(sim.now - r0)
                assert len(data) == size

    t0 = sim.now
    run_phase(sim, [sim.process(reader(c, p))
                    for c in range(n_clients) for p in range(procs)])
    read_elapsed = sim.now - t0

    lats.sort()
    store = cluster.store
    tier = store.metrics if hasattr(store, "tier_maintain") else None
    result = {
        "kind": kind,
        "ingest_rate": (n_clients * procs * files) / ingest_elapsed,
        "reads": len(lats),
        "read_elapsed": read_elapsed,
        "read_mean": sum(lats) / len(lats),
        "read_p99": lats[int(len(lats) * 0.99) - 1],
        "tier": tier,
    }
    if tier is not None:
        hits = tier.counter("hits").value
        total = hits + tier.counter("misses").value
        result["hit_rate"] = hits / total if total else 0.0
        result["cold_cost_saved"] = store.cold_cost_saved()
    return result


def tier_ablation(scale) -> Dict[str, Dict]:
    """A10: single-tier cold baseline vs the hot/cold tiered store."""
    return {
        "arkfs-cold": tier_aged_read("arkfs-cold", scale),
        "arkfs-tier": tier_aged_read("arkfs-tier", scale),
    }


def format_tier_report(results: Dict[str, Dict]) -> str:
    cold = results["arkfs-cold"]
    tier = results["arkfs-tier"]
    speedup = cold["read_mean"] / tier["read_mean"]
    lines = [
        "A10 — hot/cold tiering, aged read mix "
        f"({tier['reads']} reads, {REREADS} passes)",
        f"  {'config':<12} {'read mean':>12} {'read p99':>12} "
        f"{'ingest/s':>10}",
    ]
    for r in (cold, tier):
        lines.append(
            f"  {r['kind']:<12} {r['read_mean'] * 1e3:>10.2f}ms "
            f"{r['read_p99'] * 1e3:>10.2f}ms {r['ingest_rate']:>10,.0f}")
    lines.append(f"  aged-read speedup: {speedup:.1f}x")
    stats = tier["tier"]
    if stats is not None:
        hits, misses, promotions, demotions, cold_get, hot_served = (
            stats.counter(name).value
            for name in ("hits", "misses", "promotions", "demotions",
                         "cold_get_bytes", "hit_bytes"))
        lines.append(
            f"  hot tier: hit rate {tier['hit_rate'] * 100:.1f}% "
            f"({hits} hits / {misses} misses), "
            f"{promotions} promotions, {demotions} demotions")
        lines.append(
            f"  cold GETs: {cold_get / MiB:.1f} MiB fetched, "
            f"{hot_served / MiB:.1f} MiB served hot "
            f"(saved ${tier['cold_cost_saved']:.4f} of cold traffic)")
    return "\n".join(lines)
