"""Kernel microbenchmark: fast two-queue scheduler vs. reference heap kernel.

Measures raw scheduler throughput (simulated operations per real second) on
the two workloads from :mod:`repro.bench.kernelbench`, each under both
kernels. The speedups land in ``BENCH_kernel.json`` via ``extra_info``, and
:func:`test_kernel_microbench_speedup` gates CI on them (ratios, not
absolute ops/sec, so host speed mostly cancels).

The fig6a data-path benchmark is gated on *deterministic* kernel counters
instead of wall clock: fig6a is dominated by cache/data movement, not the
scheduler, so its wall-clock delta between kernels is small and drowns in
noise on a loaded host — but the event-elision the fast kernel performs is
exactly reproducible, so the counter reduction is assertable bit-for-bit.

Measured reference numbers (same machine, best of 3, fresh process):

* pingpong:  legacy/pre-PR ~37-42k ops/s, fast ~167-208k  -> 4.4-5.0x
* contended: legacy/pre-PR ~339-405k ops/s, fast ~515-554k -> 1.4x
  (per-op generator frames shared by both kernels floor this ratio)
* fig6a arkfs events: legacy 13,878 loop / 13,890 heap pushes;
  fast 9,542 loop / 7,620 heap pushes (4,335 consumed inline)

Assertion floors sit well under the measured speedups to absorb CI noise.
"""

import gc
import time

import pytest

from repro.bench import SMALL
from repro.bench.harness import BENCH_OBS, NET_50G, build
from repro.bench.kernelbench import compare, pingpong
from repro.obs import ROOT_CAT, chrome_trace_events
from repro.sim import Simulator
from repro.sim.stats import kernel_counters
from repro.workloads import fio_seq

#: Absolute throughputs measured at the commit before the fast kernel
#: landed (the in-process ``fast=False`` kernel is the same algorithm).
PRE_PR = {"pingpong_ops_per_sec": 37_200.0,
          "contended_ops_per_sec": 339_000.0}

# (workload, minimum fast-vs-legacy speedup). Measured: pingpong 4.4-5.2x,
# contended 1.24-1.45x. Each floor is at least 80% of the low end of its
# measured range, so a fast path that quietly stopped firing fails here.
_FLOORS = [("pingpong", 3.52), ("contended", 1.1)]


@pytest.mark.parametrize("workload,floor", _FLOORS)
def test_kernel_microbench_speedup(benchmark, workload, floor):
    result = benchmark.pedantic(compare, args=(workload,),
                                iterations=1, rounds=1, warmup_rounds=0)
    fast, legacy = result["fast"], result["legacy"]
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["speedup"] = result["speedup"]
    benchmark.extra_info["fast_ops_per_sec"] = fast["ops_per_sec"]
    benchmark.extra_info["legacy_ops_per_sec"] = legacy["ops_per_sec"]
    benchmark.extra_info["fast_counters"] = fast["counters"]
    benchmark.extra_info["legacy_counters"] = legacy["counters"]
    benchmark.extra_info["pre_pr"] = PRE_PR
    print(f"\n{workload}: fast {fast['ops_per_sec']:,.0f} ops/s, "
          f"legacy {legacy['ops_per_sec']:,.0f} ops/s, "
          f"speedup {result['speedup']:.2f}x")
    assert result["speedup"] >= floor, (
        f"{workload}: fast kernel only {result['speedup']:.2f}x over the "
        f"heap-only scheduler (floor {floor}x)")


def _fig6a_arkfs(fast):
    """The fig6a arkfs leg with the Simulator in hand, so the kernel
    counters are readable afterwards."""
    sim = Simulator(fast=fast)
    _cluster, mounts = build("arkfs", sim, n_clients=SMALL.fio_nodes,
                             net=NET_50G,
                             cache_capacity=max(96 * 1024 * 1024,
                                                SMALL.fio_file // 2))
    t0 = time.perf_counter()
    result = fio_seq(sim, mounts, n_procs=SMALL.fio_procs,
                     file_size=SMALL.fio_file, block_size=SMALL.fio_block)
    wall = time.perf_counter() - t0
    return ((result.write_mbps, result.read_mbps), kernel_counters(sim),
            wall)


def test_fig6a_event_elision_and_identity(benchmark):
    """On the fig6a arkfs workload the fast kernel must elide a large,
    deterministic share of the reference kernel's events while producing
    identical simulated bandwidths. Wall clocks are recorded for the JSON
    but not asserted: this workload is data-path-bound, so its wall delta
    is within host noise."""

    def measure():
        r_fast, c_fast, w_fast = _fig6a_arkfs(True)
        r_legacy, c_legacy, w_legacy = _fig6a_arkfs(False)
        assert r_fast == r_legacy  # bit-identical simulated bandwidths
        return {"fast": c_fast, "legacy": c_legacy,
                "fast_wall_s": w_fast, "legacy_wall_s": w_legacy}

    out = benchmark.pedantic(measure, iterations=1, rounds=1,
                             warmup_rounds=0)
    benchmark.extra_info["workload"] = "fig6a_arkfs_small"
    benchmark.extra_info.update(out)
    loop_cut = 1 - out["fast"]["loop_events"] / out["legacy"]["loop_events"]
    heap_cut = 1 - out["fast"]["heap_pushes"] / out["legacy"]["heap_pushes"]
    print(f"\nfig6a arkfs: loop events {out['legacy']['loop_events']} -> "
          f"{out['fast']['loop_events']} (-{loop_cut:.0%}), heap pushes "
          f"{out['legacy']['heap_pushes']} -> {out['fast']['heap_pushes']} "
          f"(-{heap_cut:.0%}), {out['fast']['inline_events']} inline")
    # Measured: 31% fewer loop events, 45% fewer heap pushes, 4335 inline.
    assert loop_cut >= 0.25
    assert heap_cut >= 0.35
    assert out["fast"]["inline_events"] > 0
    assert out["legacy"]["inline_events"] == 0


def _set_obs(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(BENCH_OBS, "tracing", False)
    monkeypatch.setattr(BENCH_OBS, "sample_rate", 0.01 if on else 0.0)
    monkeypatch.setattr(BENCH_OBS, "slowlog", on)
    monkeypatch.setattr(BENCH_OBS, "recorder", on)


def test_observability_overhead_and_sampling(benchmark, monkeypatch):
    """The always-on tier (1% sampled tracing + slowlog + recorder) must
    cost <=5% of untraced fast-kernel throughput, keep simulated results
    bit-identical, and actually export the deterministically sampled
    fraction of root-op spans."""

    def measure():
        # Raw scheduler hot path: pingpong with the tier installed pays
        # one extra attribute check per Process._step (best of 3 each).
        pp_off = max(pingpong(fast=True)["ops_per_sec"] for _ in range(3))
        pp_on = max(pingpong(fast=True, obs=True)["ops_per_sec"]
                    for _ in range(3))

        # Full data path: fig6a arkfs, tier on vs. fully off. The configs
        # alternate within each trial so host-speed drift (thermal, cache,
        # competing load) hits both equally; best-of-3 per config. Cyclic
        # GC is quiesced and paused around each timed run: collection cost
        # scales with whatever unrelated live heap earlier tests left
        # behind, which otherwise amplifies the tier's small allocation
        # rate into an arbitrary wall-clock penalty.
        walls = {True: None, False: None}
        mbps = {}
        obs = None
        for _ in range(3):
            for on in (True, False):
                _set_obs(monkeypatch, on)
                BENCH_OBS.reset()
                gc.collect()
                gc_was = gc.isenabled()
                gc.disable()
                try:
                    r, _counters, w = _fig6a_arkfs(True)
                finally:
                    if gc_was:
                        gc.enable()
                if on and obs is None:
                    obs = BENCH_OBS.collected[-1][1]
                BENCH_OBS.reset()
                assert mbps.setdefault(on, r) == r
                if walls[on] is None or w < walls[on]:
                    walls[on] = w
        return (pp_off, pp_on, mbps[True], walls[True],
                mbps[False], walls[False], obs)

    (pp_off, pp_on, mbps_on, wall_on,
     mbps_off, wall_off, obs) = benchmark.pedantic(
        measure, iterations=1, rounds=1, warmup_rounds=0)

    pp_ratio = pp_on / pp_off
    fig6a_ratio = wall_off / wall_on  # >1 when the tier-on run was faster
    benchmark.extra_info["workload"] = "obs_overhead"
    benchmark.extra_info["pingpong_obs_ratio"] = pp_ratio
    benchmark.extra_info["fig6a_obs_ratio"] = fig6a_ratio
    print(f"\nobs overhead: pingpong {pp_ratio:.3f}x of untraced, "
          f"fig6a {fig6a_ratio:.3f}x (walls {wall_on:.2f}s vs "
          f"{wall_off:.2f}s)")

    # Bit-identity: sampling/slowlog/recorder never touch simulated time.
    assert mbps_on == mbps_off

    # The sampled-span contract: exactly the hash-chosen fraction of root
    # ops traced, and each traced op exported a root span.
    ob = obs._op_observer
    assert ob.n_root > 0
    assert ob.n_sampled == ob.expected_sampled()
    assert ob.n_sampled >= 1
    root_events = [e for e in chrome_trace_events([obs.tracer])
                   if e["ph"] == "X" and e["cat"] == ROOT_CAT
                   and e["args"].get("op") is not None]
    assert len(root_events) == ob.n_sampled

    # <=5% overhead on both the scheduler hot path and the data path.
    assert pp_ratio >= 0.95, f"pingpong with obs at {pp_ratio:.3f}x"
    assert fig6a_ratio >= 0.95, f"fig6a with obs at {fig6a_ratio:.3f}x"
