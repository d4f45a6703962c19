"""Queueing primitives built on the DES kernel.

These model the shared hardware the paper's performance effects come from:
CPU cores at metadata servers and clients (:class:`Resource`), storage and
network bandwidth (:class:`BandwidthPipe`), message queues (:class:`Store`),
and mutual exclusion such as the FUSE lookup lock (:class:`Mutex`).

Hot-path notes (DESIGN.md §10): the uncontended zero-hold acquisition in
:meth:`Resource.use` short-circuits the whole request/grant/release Event
round-trip when the kernel can prove the grant would be processed
immediately anyway (``Simulator._inline_ok``); never-granted requests are
*lazily* cancelled instead of removed from the FIFO in O(n); and the
Request/Timeout objects used internally by ``use`` are recycled through
small freelists.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from .engine import Event, SimGen, SimIter, Simulator, SimulationError

__all__ = ["Request", "Resource", "Mutex", "Store", "BandwidthPipe", "serve"]

_PENDING = Event._PENDING

#: Cap on each Resource's internal Request freelist.
_REQ_POOL_MAX = 64


def _span_cat(name: str) -> str:
    """Latency-attribution category for a resource, by naming convention."""
    if name.endswith(".cpu"):
        return "cpu"
    if name.endswith(".nic"):
        return "net"
    if name.endswith(".media"):
        return "media"
    return "svc"


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Triggers (with value ``self``) once the resource grants a slot. Must be
    passed back to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "granted", "cancelled")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.granted = False
        # Lazily-cancelled queued request: skipped (and dropped) when it
        # reaches the head of the FIFO instead of being removed in O(n).
        self.cancelled = False


class Resource:
    """A FIFO multi-server resource with fixed capacity.

    ``capacity`` concurrent holders; further requests queue in arrival order.
    This is the building block for CPU cores, MDS service slots, and disk
    queue depth.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.span_cat = _span_cat(name)
        self._wait_name = f"wait:{name}" if name else "wait"
        self._in_use = 0
        self._queue: Deque[Request] = deque()
        self._n_cancelled = 0
        self._pool: list[Request] = []

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue) - self._n_cancelled

    def request(self) -> Request:
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def _request_pooled(self) -> Request:
        """Internal variant of :meth:`request` for :meth:`use`: may return a
        recycled Request object (never exposed to user code)."""
        pool = self._pool
        if pool:
            req = pool.pop()
            req._value = _PENDING
            req._ok = None
            req._scheduled = False
            req.callbacks = []
            req.granted = False
            req.cancelled = False
        else:
            req = Request(self)
        if self._in_use < self.capacity:
            # _grant inlined: this runs on every non-elided use().
            self._in_use += 1
            req.granted = True
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        if not req.granted:
            # Cancelling a queued request (e.g. the holder-to-be crashed).
            # Lazy: flag it and let the grant loop skip it when it surfaces;
            # an O(n) deque.remove here was a hot spot under crash sweeps.
            if req.cancelled or req._value is not _PENDING:
                raise SimulationError("releasing a request never granted/queued")
            req.cancelled = True
            self._n_cancelled += 1
            q = self._queue
            while q and q[0].cancelled:
                q.popleft()
                self._n_cancelled -= 1
            return
        req.granted = False
        self._in_use -= 1
        q = self._queue
        while q and self._in_use < self.capacity:
            nxt = q.popleft()
            if nxt.cancelled:
                self._n_cancelled -= 1
                continue
            self._grant(nxt)

    def _grant(self, req: Request) -> None:
        self._in_use += 1
        req.granted = True
        req.succeed(req)

    def use(self, hold_time: float) -> SimIter:
        """Acquire, hold for ``hold_time``, release.

        A flat helper (see :data:`~repro.sim.engine.SimIter`): the
        uncontended zero-hold case returns ``()`` without a frame, anything
        else the :meth:`_use` generator. With tracing on, a contended
        acquisition gets a queue-wait span and the hold gets a span in the
        resource's attribution category; the yielded event sequence is
        identical either way."""
        sim = self.sim
        if (hold_time == 0.0 and sim._tracer is None
                and self._in_use < self.capacity and sim._inline_ok()):
            # Uncontended zero-hold acquisition with nothing else runnable
            # right now: the reference kernel would grant, immediately
            # process the grant event, and release without any intervening
            # action — elide the Event round-trip entirely.
            return ()
        return self._use(hold_time)

    def _use(self, hold_time: float) -> SimGen:
        sim = self.sim
        tr = sim._tracer
        req = self._request_pooled()
        if tr is not None and not req.granted:
            with tr.span(self._wait_name, "queue"):
                yield req
        else:
            yield req
        try:
            if hold_time > 0:
                if tr is not None:
                    with tr.span(self.name or "hold", self.span_cat):
                        yield sim.timeout(hold_time)
                else:
                    t = sim._timeout_acquire(hold_time)
                    yield t
                    sim._timeout_release(t)
        finally:
            self.release(req)
            # Recycle only fully-consumed requests: processed (popped off
            # the queues, callbacks run) and not parked cancelled in the
            # FIFO. Anything else may still be referenced by the scheduler.
            if (sim._fast and req.callbacks is None and not req.cancelled
                    and len(self._pool) < _REQ_POOL_MAX):
                self._pool.append(req)


class Mutex(Resource):
    """Capacity-1 resource (e.g. the kernel's exclusive FUSE lookup lock)."""

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)


class Store:
    """An unbounded FIFO channel of items; ``get`` blocks until an item exists.

    Used for RPC server request queues and background-thread work queues.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; ``None`` if empty."""
        return self._items.popleft() if self._items else None


class BandwidthPipe:
    """A shared link/device transferring bytes at a fixed aggregate rate.

    Transfers are serviced FIFO through ``lanes`` parallel channels, each
    proportionally slower as the device is shared. The FIFO model reproduces
    saturation behaviour (aggregate throughput caps at ``bytes_per_sec``)
    without the complexity of fair-share recomputation.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_sec: float,
        lanes: int = 1,
        name: str = "",
    ):
        if bytes_per_sec <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bytes_per_sec = float(bytes_per_sec)
        self.name = name
        self._res = Resource(sim, capacity=max(1, lanes), name=name)
        if self._res.span_cat == "svc":
            # Pipes move data: local disks etc. attribute as "media".
            self._res.span_cat = "media"
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> SimIter:
        """Move ``nbytes`` through the pipe, modelling queueing. A flat
        helper returning :meth:`Resource.use`'s iterable, whose zero-hold
        elision covers the zero-serialization hop through an idle pipe."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        self.bytes_moved += nbytes
        res = self._res
        # Each lane serves at the per-lane share of the aggregate rate.
        return res.use(nbytes * res.capacity / self.bytes_per_sec)

    @property
    def queue_length(self) -> int:
        return self._res.queue_length


def serve(resource: Resource, service_time: float) -> SimIter:
    """Acquire ``resource``, hold it for ``service_time``, release.

    The canonical "CPU does work" pattern: queueing delay emerges when the
    resource is contended. Returns :meth:`Resource.use`'s iterable.
    """
    return resource.use(service_time)
