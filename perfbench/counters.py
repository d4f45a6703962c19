"""The one adapter between the benchmark and the program's own counters.

Every read of program state the benchmark makes (registry sums, kernel
event counts, network and object-store tallies, lease statistics, sampled
resource series) goes through this module, and so does the one write
(aging the inode allocator), so a rename inside ``src/`` touches one file
here. Reading never schedules simulation events, so none of it can move
simulated time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.obs import Observability, Series
from repro.sim.stats import kernel_counters

__all__ = ["age_allocator", "snapshot", "delta", "stored_bytes",
           "series_mean"]


def age_allocator(cluster, draws: int) -> None:
    """Advance the shared inode allocator by ``draws`` inode numbers, as if
    that many files had been created and removed before the run. Every
    object key embeds an inode number, so this moves where each object of
    the run lands among the OSDs."""
    alloc = cluster.clients[0].alloc
    for _ in range(draws):
        alloc.new()


def _registry_sum(metrics, suffix: str) -> int:
    return sum(m.value for name, m in metrics.items()
               if name.endswith(suffix))


def snapshot(sim, cluster, mounts: Sequence, disks: Iterable = ()
             ) -> Dict[str, float]:
    """Monotonic program counters, flat, for deltas over a window."""
    metrics = Observability.of(sim).metrics
    store = cluster.store
    lease = cluster.lease_service.stats
    kern = kernel_counters(sim)
    retry = metrics.get("store.retry.attempts")
    return {
        "store.requests": sum(store.backing.op_counts.values()),
        "store.bytes_read": store.bytes_read,
        "store.bytes_written": store.bytes_written,
        "store.retry_attempts": retry.value if retry is not None else 0,
        "lease.acquire": lease["acquire"],
        "lease.redirect": lease["redirect"],
        "lease.wait": lease["wait"],
        "core.authority_ops": sum(sum(c.op_stats.values())
                                  for c in cluster.clients),
        "cache.hits": _registry_sum(metrics, ".cache.hits"),
        "cache.misses": _registry_sum(metrics, ".cache.misses"),
        "cache.evictions": _registry_sum(metrics, ".cache.evictions"),
        "journal.commits": _registry_sum(metrics, ".journal.commits"),
        "journal.commit_rounds": _registry_sum(metrics,
                                               ".journal.commit_rounds"),
        "kernel.loop_events": kern["loop_events"],
        "kernel.inline_events": kern["inline_events"],
        "kernel.heap_pushes": kern["heap_pushes"],
        "net.msgs": cluster.net.messages_sent,
        "net.bytes": cluster.net.bytes_sent,
        "fuse.requests": sum(m.request_count for m in mounts),
        "ebs.bytes": sum(d.bytes_read + d.bytes_written for d in disks),
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def stored_bytes(cluster) -> int:
    """Bytes the object store holds right now (``store.usage()``)."""
    return cluster.store.usage()[1]


def series_mean(sim, suffix: str, window: Tuple[float, float]) -> float:
    """Mean of every sampled point, over all series named ``*suffix``
    (e.g. ``.q.util`` for the OSD queues), taken inside ``window``."""
    lo, hi = window
    total = 0.0
    n = 0
    for name, metric in Observability.of(sim).metrics.items():
        if not name.endswith(suffix) or not isinstance(metric, Series):
            continue
        for t, v in zip(metric.times, metric.values):
            if lo <= t <= hi:
                total += v
                n += 1
    return total / n if n else 0.0
