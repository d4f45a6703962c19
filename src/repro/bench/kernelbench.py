"""Kernel microbenchmarks: raw scheduler throughput, fast vs. reference.

Two workloads exercise the hot paths DESIGN.md §10 describes:

* ``pingpong`` — zero-latency-hop RPC ping-pong between two nodes. Every
  RPC is a process spawn plus a handful of immediately-due events (NIC
  hops, grant/complete), i.e. the ready-deque + immediate-resume path.
* ``contended`` — many processes hammering a capacity-2 Resource with a
  mix of timed and zero-length holds: the grant/release/lazy-cancel path
  plus heap traffic for the timed holds.

Each returns wall-clock ops/sec (simulated operations per real second) and
the kernel counters, and :func:`compare` runs a workload under both the
fast two-queue scheduler and the reference heap-only scheduler
(``Simulator(fast=False)``) to report the speedup — the number
``benchmarks/test_kernel_speed.py`` gates on, chosen over absolute ops/sec
because a ratio of two runs on the same machine mostly cancels host speed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..sim import NetParams, Network, Node, Resource, Simulator
from ..sim.stats import kernel_counters

__all__ = ["pingpong", "contended", "compare", "WORKLOADS"]


def _run(build: Callable[[Simulator], int], fast: Optional[bool],
         obs: bool = False) -> Dict[str, object]:
    """Drive one workload to completion and package the measurement.

    ``obs=True`` installs the always-on observability tier (1% sampled
    tracing + slow-op log + flight recorder) before running, so the
    overhead gate in ``benchmarks/test_kernel_speed.py`` can measure its
    cost on the raw scheduler hot path."""
    sim = Simulator(fast=fast)
    if obs:
        from ..obs import Observability

        o = Observability.of(sim)
        o.enable_tracing(sample_rate=0.01)
        o.enable_slowlog()
        o.enable_recorder()
    ops = build(sim)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "ops": ops,
        "wall_s": wall,
        "ops_per_sec": ops / wall if wall > 0 else 0.0,
        "sim_time": sim.now,
        "counters": kernel_counters(sim),
    }


def pingpong(n_ops: int = 20_000, fast: Optional[bool] = None,
             obs: bool = False) -> Dict[str, object]:
    """Zero-latency-hop RPC ping-pong: ``n_ops`` echo RPCs a -> b."""

    def build(sim: Simulator) -> int:
        net = Network(sim, NetParams(latency_s=0.0,
                                     bandwidth_bps=float("inf")))
        a = Node(sim, "a", net=net)
        b = Node(sim, "b", net=net)

        def echo(x):
            return x
            yield  # pragma: no cover - marks this as a generator

        b.register("echo", echo)

        def client():
            for i in range(n_ops):
                yield from a.call(b, "echo", i)

        sim.process(client())
        return n_ops

    return _run(build, fast, obs=obs)


def contended(n_ops: int = 40_000, procs: int = 4,
              fast: Optional[bool] = None,
              obs: bool = False) -> Dict[str, object]:
    """``procs`` workers sharing a capacity-2 resource.

    Every 8th acquisition holds for a microsecond — a timed heap event
    that opens a window of real contention (FIFO queueing, grant on
    release) — while the rest are zero-length. The mix mirrors how the
    FS layers use CPU slots: mostly instantaneous bookkeeping
    acquisitions punctuated by timed work, so the uncontended
    short-circuit, the grant/release path, and the heap all get
    exercised."""

    def build(sim: Simulator) -> int:
        res = Resource(sim, capacity=2, name="bench.cpu")
        per = max(1, n_ops // procs)

        def worker(k: int):
            for i in range(per):
                yield from res.use(0.0 if (i + k) % 8 else 1e-6)

        for k in range(procs):
            sim.process(worker(k))
        return per * procs

    return _run(build, fast, obs=obs)


WORKLOADS: Dict[str, Callable[..., Dict[str, object]]] = {
    "pingpong": pingpong,
    "contended": contended,
}


def compare(name: str, repeats: int = 3, **kwargs) -> Dict[str, object]:
    """Run one workload under both schedulers; report both and the speedup.

    Each side runs ``repeats`` times and the best (highest ops/sec) run is
    kept — the standard noise shield for wall-clock microbenchmarks on a
    shared machine."""
    fn = WORKLOADS[name]

    def best(fast: bool) -> Dict[str, object]:
        runs = [fn(fast=fast, **kwargs) for _ in range(max(1, repeats))]
        return max(runs, key=lambda r: r["ops_per_sec"])

    legacy = best(False)
    fastr = best(True)
    legacy_ops = legacy["ops_per_sec"]
    return {
        "workload": name,
        "fast": fastr,
        "legacy": legacy,
        "speedup": (fastr["ops_per_sec"] / legacy_ops) if legacy_ops else 0.0,
    }
