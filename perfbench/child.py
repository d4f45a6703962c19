"""Run one workload in this interpreter and print its figures as JSON.

``run.py`` starts this file once per workload in a fresh interpreter, so
``peak_rss_mb`` belongs to that workload alone. The garbage collector
keeps its default settings throughout, as users run it; between
repetitions (outside every timed region) one full collection frees the
previous cluster so it cannot inflate the next one's memory or GC work.

Untraced (``--trace 0``): an untimed warm-up at tiny size, then full-size
repetitions on fresh clusters until ``--seconds`` have passed. Every
repetition uses the same seeded inputs, so their simulated figures must be
identical; host figures are reported as the median over repetitions.

Traced (``--trace 1``): the warm-up, then one repetition with the layer
wrappers of ``probes.LayerTrace`` installed and ``cProfile`` running over
the measured section.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import counters  # noqa: E402
from hostspeed import SpeedGauge  # noqa: E402
from metrics import PHASES  # noqa: E402
from probes import (CORE_VERBS, GET_FAMILY, PUT_FAMILY, STORE_VERBS,  # noqa: E402
                    VFS_OPS, LayerTrace, percentile, self_fractions)
from scenarios import SCENARIOS  # noqa: E402

#: Extra set-ups per run beyond one per repetition, for a steadier median.
SETUP_SAMPLES = 15


def _per(n: float, d: float) -> float:
    return n / d if d else 0.0


class Repetition:
    """One set-up plus measured section, with the numbers it produced."""

    def __init__(self, workload: str, seed: int, scale: str,
                 traced: bool = False):
        self.sc = sc = SCENARIOS[workload](seed, scale)
        t0 = time.perf_counter()
        sc.setup()
        self.setup_s = time.perf_counter() - t0
        self.trace = LayerTrace(sc.sim, sc.cluster) if traced else None
        self.profile = cProfile.Profile() if traced else None
        gauge = sc.stats.gauge = None if traced else SpeedGauge()
        before = self._snapshot()
        sim_start = sc.sim.now
        t0 = time.perf_counter()
        if self.profile is not None:
            self.profile.enable()
        try:
            sc.run()
        finally:
            if self.profile is not None:
                self.profile.disable()
        wall = time.perf_counter() - t0
        # Untraced: host seconds without the reference calls, raw and at
        # reference speed (see hostspeed). Traced: plain host seconds.
        self.factor = gauge.factor if gauge else 1.0
        self.wall_raw_s = wall - (gauge.seconds if gauge else 0.0)
        self.wall_s = self.wall_raw_s * self.factor
        self.window = (sim_start, sc.sim.now)
        self.d = counters.delta(self._snapshot(), before)
        # Figures first: the checks below run more simulation.
        self.sim = self.sim_metrics()
        self.layers = self.layer_metrics() if traced else None
        self.errors = sc.verify()
        sc.close()

    def _snapshot(self):
        sc = self.sc
        return counters.snapshot(sc.sim, sc.cluster, sc.mounts, sc.disks)

    def sim_metrics(self) -> dict:
        sc, st, d = self.sc, self.sc.stats, self.d
        elapsed = sum(t for _name, t in sc.phases)
        lat = st.all_latencies()
        stored, written = sc.ingest or (0, 0)
        return {
            "sim_elapsed_s": elapsed,
            "sim_ops_per_s": _per(st.ops, elapsed),
            "sim_mb_per_s": _per(st.bytes_read + st.bytes_written,
                                 elapsed) / 1e6,
            "sim_lat_mean_ms": (statistics.fmean(lat) if lat else 0.0) * 1e3,
            "store_req_per_op": _per(d["store.requests"], st.ops),
            "space_amp": _per(stored, written),
        }

    def layer_metrics(self) -> dict:
        sc, st, d = self.sc, self.sc.stats, self.d
        ops = st.ops
        lat = st.all_latencies()
        out = {"posix.ops": ops,
               "posix.fail_ratio": _per(st.failed, ops),
               "posix.sim_lat_p50_ms": percentile(lat, 50) * 1e3,
               "posix.sim_lat_p99_ms": percentile(lat, 99) * 1e3}
        for op in VFS_OPS:
            op_lat = st.lat.get(op, [])
            out[f"posix.{op}.n"] = len(op_lat)
            out[f"posix.{op}.sim_p50_ms"] = percentile(op_lat, 50) * 1e3
            out[f"posix.{op}.sim_p99_ms"] = percentile(op_lat, 99) * 1e3
        out["posix.fuse_req_per_op"] = _per(d["fuse.requests"], ops)
        for name in PHASES:
            out[f"phase.{name}.sim_s"] = sum(t for n, t in sc.phases
                                             if n == name)
        core = self.trace.core
        for verb in CORE_VERBS:
            out[f"core.{verb}.n"] = len(core[verb])
            out[f"core.{verb}.sim_ms_mean"] = (
                statistics.fmean(core[verb]) * 1e3 if core[verb] else 0.0)
        out["core.authority_ops_per_op"] = _per(d["core.authority_ops"], ops)
        for k in ("acquire", "redirect", "wait"):
            out[f"core.lease.{k}"] = d[f"lease.{k}"]
        out["core.cache.hit_ratio"] = _per(
            d["cache.hits"], d["cache.hits"] + d["cache.misses"])
        out["core.cache.evictions"] = d["cache.evictions"]
        out["core.journal.commits"] = d["journal.commits"]
        out["core.journal.commit_rounds"] = d["journal.commit_rounds"]
        store = self.trace.store
        for verb in STORE_VERBS:
            out[f"objectstore.{verb}.n"] = len(store[verb])
        out["objectstore.get.sim_p99_ms"] = percentile(
            self.trace.family(GET_FAMILY), 99) * 1e3
        out["objectstore.put.sim_p99_ms"] = percentile(
            self.trace.family(PUT_FAMILY), 99) * 1e3
        out["objectstore.bytes_read_per_user_byte"] = _per(
            d["store.bytes_read"], st.bytes_read)
        out["objectstore.bytes_written_per_user_byte"] = _per(
            d["store.bytes_written"], st.bytes_written)
        out["objectstore.osd_util_mean"] = counters.series_mean(
            sc.sim, ".q.util", self.window)
        out["objectstore.osd_qdepth_mean"] = counters.series_mean(
            sc.sim, ".q.qdepth", self.window)
        out["objectstore.retry.attempts"] = d["store.retry_attempts"]
        out["objectstore.ebs_bytes"] = d["ebs.bytes"]
        out["sim.loop_events_per_op"] = _per(d["kernel.loop_events"], ops)
        out["sim.inline_events_per_op"] = _per(d["kernel.inline_events"], ops)
        out["sim.heap_pushes_per_op"] = _per(d["kernel.heap_pushes"], ops)
        out["sim.net.msgs_per_op"] = _per(d["net.msgs"], ops)
        out["sim.net.bytes_per_op"] = _per(d["net.bytes"], ops)
        out["sim.lease_mgr_util_mean"] = counters.series_mean(
            sc.sim, "lease-mgr.cpu.util", self.window)
        src_root = str(ROOT / "src" / "repro") + "/"
        fractions = self_fractions(pstats.Stats(self.profile).stats,
                                   src_root)
        for layer, frac in fractions.items():
            out[f"host.self_frac.{layer}"] = frac
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    # Warm-up: imports and lazy set-up happen here, outside every timing.
    warm = Repetition(args.workload, args.seed, "tiny")
    errors = [f"warm-up: {e}" for e in warm.errors]
    attempted, failed = warm.sc.stats.ops, warm.sc.stats.failed
    del warm
    gc.collect()

    reps = []
    setups = []
    start = time.perf_counter()
    while not reps or (not args.trace
                       and time.perf_counter() - start < args.seconds):
        rep = Repetition(args.workload, args.seed, args.scale,
                         traced=bool(args.trace))
        errors += rep.errors
        attempted += rep.sc.stats.ops
        failed += rep.sc.stats.failed
        setups.append(rep.setup_s * rep.factor)
        if reps and rep.sim != reps[0].sim:
            errors.append(f"repetition {len(reps)} simulated {rep.sim}, "
                          f"repetition 0 {reps[0].sim}")
        rep.sc = rep.trace = rep.profile = None  # free the cluster
        reps.append(rep)
        gc.collect()
    factor = statistics.median(r.factor for r in reps)
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        t0 = time.perf_counter()
        sc = SCENARIOS[args.workload](args.seed, args.scale)
        sc.setup()
        setups.append((time.perf_counter() - t0) * factor)
        sc.close()
        del sc
        gc.collect()

    out = {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "repetitions": len(reps),
        "sim": reps[0].sim,
        "wall_s": statistics.median(r.wall_s for r in reps),
        "wall_raw_s": statistics.median(r.wall_raw_s for r in reps),
        "speed_factor": factor,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        out["layers"] = reps[0].layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
