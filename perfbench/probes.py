"""Measurement at layer boundaries, from the benchmark's side.

* :class:`VfsProbe` stands in for a mount in front of a workload: it times
  every VFS call in simulated seconds, counts calls, bytes and failures,
  and hands read results to the workload's content check.
* :class:`LayerTrace` (traced runs only) wraps the public verbs of each
  ``ArkFSClient`` and of the ``ClusterObjectStore`` on the built instances
  and records their simulated latency.
* :func:`self_fractions` folds a ``cProfile`` run into host self time per
  ``repro`` package.

Nothing here changes ``src/``: every wrapper is a generator that delegates
with ``yield from``, so the events the program yields reach the kernel
unchanged and simulated time cannot move (the traced run checks this).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["VFS_OPS", "CORE_VERBS", "STORE_VERBS", "GET_FAMILY",
           "PUT_FAMILY", "HOST_LAYERS", "PhaseClock", "VfsProbe", "VfsStats",
           "LayerTrace", "percentile", "self_fractions"]

#: The VFS calls the three workloads make.
VFS_OPS = ("mkdir", "open", "close", "stat", "read", "write", "fsync",
           "unlink", "readdir")

#: ArkFSClient verbs the mount and the phase runner call.
CORE_VERBS = ("lookup", "mkdir", "open", "close", "stat", "read", "write",
              "fsync", "unlink", "readdir", "sync", "drop_caches")

#: ClusterObjectStore verbs. Batched verbs count once per call here.
STORE_VERBS = ("get", "get_range", "get_many", "put", "put_many",
               "put_if_absent", "delete", "delete_many", "head", "list")

#: Store verbs pooled into the ``get`` and ``put`` latency families.
GET_FAMILY = ("get", "get_range", "get_many")
PUT_FAMILY = ("put", "put_many", "put_if_absent")

HOST_LAYERS = ("sim", "posix", "core", "objectstore", "obs", "workloads",
               "other")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class PhaseClock:
    """Phase boundaries as the workload runner marks them.

    ``WorkloadRunner.phase`` drops the dentry cache of every mount it was
    given as a phase begins, at the phase's start instant. The probes
    forward that call here, so the benchmark learns each boundary without
    touching the runner. ``on_boundary(index)`` runs once per boundary,
    before the phase issues any operation.
    """

    def __init__(self, sim, on_boundary: Optional[Callable[[int], None]]
                 = None):
        self.sim = sim
        self.on_boundary = on_boundary
        self.starts: List[float] = []

    def mark(self) -> None:
        now = self.sim.now
        if self.starts and self.starts[-1] == now:
            return  # another mount of the same boundary
        self.starts.append(now)
        if self.on_boundary is not None:
            self.on_boundary(len(self.starts))


class VfsProbe:
    """A mount as the workloads see it; delegates to the real mount.

    ``check_read(path, offset, data)`` and ``on_write(path, offset, data)``
    are the workload's content hooks; a check returns an error string or
    ``None``. Errors are collected, never raised, so a wrong byte shows in
    the result instead of aborting the run half way.
    """

    def __init__(self, mount, clock: PhaseClock, stats: "VfsStats"):
        self.mount = mount
        self.inner = mount.inner   # the client, for the runner's phase sync
        self.sim = mount.sim
        self.clock = clock
        self.stats = stats
        self._paths: Dict[object, str] = {}

    def invalidate_dcache(self) -> None:
        self.clock.mark()
        self.mount.invalidate_dcache()

    def _call(self, op: str, gen):
        sim = self.sim
        stats = self.stats
        t0 = sim.now
        try:
            result = yield from gen
        except Exception:
            stats.failed += 1
            raise
        finally:
            stats.lat[op].append(sim.now - t0)
            if stats.gauge is not None:
                stats.gauge.tick()
        return result

    def mkdir(self, creds, path, mode=0o777):
        return self._call("mkdir", self.mount.mkdir(creds, path, mode))

    def open(self, creds, path, flags, mode=0o666):
        return self._open(creds, path, flags, mode)

    def _open(self, creds, path, flags, mode):
        handle = yield from self._call(
            "open", self.mount.open(creds, path, flags, mode))
        self._paths[handle] = path
        return handle

    def close(self, handle):
        self._paths.pop(handle, None)
        return self._call("close", self.mount.close(handle))

    def stat(self, creds, path):
        return self._call("stat", self.mount.stat(creds, path))

    def readdir(self, creds, path):
        return self._call("readdir", self.mount.readdir(creds, path))

    def unlink(self, creds, path):
        return self._call("unlink", self.mount.unlink(creds, path))

    def fsync(self, handle):
        return self._call("fsync", self.mount.fsync(handle))

    def read(self, handle, size, offset=None):
        return self._read(handle, size, offset)

    def _read(self, handle, size, offset):
        pos = handle.pos if offset is None else offset
        data = yield from self._call(
            "read", self.mount.read(handle, size, offset))
        stats = self.stats
        stats.bytes_read += len(data)
        if stats.check_read is not None:
            err = stats.check_read(self._paths.get(handle), pos, data)
            if err is not None:
                stats.errors.append(err)
        return data

    def write(self, handle, data, offset=None):
        stats = self.stats
        stats.bytes_written += len(data)
        if stats.on_write is not None:
            pos = handle.pos if offset is None else offset
            stats.on_write(self._paths.get(handle), pos, data)
        return self._call("write", self.mount.write(handle, data, offset))


class VfsStats:
    """What the probes of one cluster saw, pooled over its mounts."""

    def __init__(self):
        self.lat: Dict[str, List[float]] = defaultdict(list)
        self.failed = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.errors: List[str] = []
        self.check_read: Optional[Callable] = None
        self.on_write: Optional[Callable] = None
        self.gauge = None   # hostspeed.SpeedGauge, ticked after every call

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.lat.values())

    def all_latencies(self) -> List[float]:
        out: List[float] = []
        for v in self.lat.values():
            out.extend(v)
        return out


def _timed(sim, samples: List[float], gen):
    t0 = sim.now
    try:
        return (yield from gen)
    finally:
        samples.append(sim.now - t0)


def _wrap(obj, verb: str, sim, samples: List[float]) -> None:
    """Shadow ``obj.verb`` with a timing wrapper on this instance only."""
    method = getattr(obj, verb)

    def timed(*args, **kwargs):
        return _timed(sim, samples, method(*args, **kwargs))

    setattr(obj, verb, timed)


class LayerTrace:
    """Simulated latency at the ArkFSClient and ClusterObjectStore verbs."""

    def __init__(self, sim, cluster):
        self.core: Dict[str, List[float]] = {v: [] for v in CORE_VERBS}
        self.store: Dict[str, List[float]] = {v: [] for v in STORE_VERBS}
        for client in cluster.clients:
            for verb in CORE_VERBS:
                _wrap(client, verb, sim, self.core[verb])
        for verb in STORE_VERBS:
            _wrap(cluster.store, verb, sim, self.store[verb])

    def family(self, verbs: Sequence[str]) -> List[float]:
        out: List[float] = []
        for v in verbs:
            out.extend(self.store[v])
        return out


def _layer_of(filename: str, src_root: str) -> str:
    if filename.startswith(src_root):
        parts = filename[len(src_root):].split(os.sep)
        if len(parts) > 1 and parts[0] in HOST_LAYERS:
            return parts[0]
    return "other"


def self_fractions(stats: dict, src_root: str) -> Dict[str, float]:
    """Host self time per package from ``pstats.Stats(...).stats``.

    Time inside C functions (file ``~``) is charged to the package of the
    Python caller that spent it, so byte copies in the cache count as
    ``core``, not as ``other``. ``src_root`` is the ``.../src/repro/``
    directory prefix.
    """
    totals = dict.fromkeys(HOST_LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename != "~":
            totals[_layer_of(filename, src_root)] += tt
            continue
        shares = [(caller, entry[2]) for caller, entry in callers.items()]
        charged = sum(t for _c, t in shares)
        for caller, t in shares:
            totals[_layer_of(caller[0], src_root)] += t
        totals["other"] += max(0.0, tt - charged)
    grand = sum(totals.values())
    return {k: (v / grand if grand else 0.0) for k, v in totals.items()}
