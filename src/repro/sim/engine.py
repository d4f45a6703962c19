"""Discrete-event simulation kernel.

This is the timing substrate for the whole reproduction: file-system
operations are generator coroutines that yield :class:`Event` objects and are
driven by a :class:`Simulator`. The design is a compact subset of the SimPy
process-interaction model, implemented from scratch so the repository has no
dependencies beyond the scientific stack.

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.5)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done" and sim.now == 1.5

Scheduler structure (DESIGN.md §10). The reference scheduler is a single
``(time, seq, event)`` heap: every triggered or due event is pushed and
popped through ``heapq``, and ``seq`` breaks same-time ties in scheduling
order. Profiling shows the vast majority of events in the file-system
models are scheduled at delay 0 (process kick-offs, ``succeed``/``fail``,
resource grants, store hand-offs), so the default scheduler splits the
event set in two:

* a FIFO *ready deque* holding events due exactly at ``now`` — appended
  and popped in O(1) with no heap traffic. Heap entries at time ``now``
  were necessarily scheduled before the clock reached ``now`` (a strictly
  positive delay lands strictly in the future), so they carry smaller
  ``seq`` values than anything in the deque and are drained first; deque
  entries then fire in append (= ``seq``) order. The pop order is
  therefore *identical* to the reference heap's.
* the heap, now touched only by events with a strictly-future due time.

On top of that, :meth:`Process._step` consumes a yielded event *inline*
(continuing the generator without returning to the run loop) exactly when
that event is provably the next one the run loop would pop: it is at the
front of the ready deque, the heap holds nothing due at ``now``, and no
enclosing callback pass has callbacks still pending (``_cb_pending``).
Under those conditions inlining is a pure constant-folding of the run
loop and cannot reorder anything.

``Simulator(fast=False)`` — or ``REPRO_SIM_KERNEL=heap`` in the
environment — selects the reference heap-only scheduler; the bit-identity
pins in ``tests/sim/test_kernel_identity.py`` replay the paper figures on
both and require identical output.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "DEFAULT_FAST",
]

# A simulated operation: a generator that yields Events and returns a value.
SimGen = Generator["Event", Any, Any]

# What a flat hot-path helper returns: its inner SimGen, or ``()`` when it
# has nothing to wait for. Consume it with ``yield from`` only, never pass
# it to ``Simulator.process`` (DESIGN.md §10, "Flat hot path").
SimIter = Iterable["Event"]

#: Default scheduler for new Simulators. ``REPRO_SIM_KERNEL=heap`` forces
#: the reference single-heap scheduler everywhere (bit-identity pins and
#: the perf gate use it as the comparison baseline).
DEFAULT_FAST = os.environ.get("REPRO_SIM_KERNEL", "fast") != "heap"

#: Bounds for the internal object freelists (timeouts / requests). Small:
#: the pools only need to cover the per-hop working set, not the backlog.
_TIMEOUT_POOL_MAX = 256

#: Cap on the freelist of recycled process kick-off events.
_START_POOL_MAX = 256


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary user data (e.g. the reason for a crash).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is *processed* once the simulator has run its
    callbacks. Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_auto_value")

    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        # Value delivered automatically when a pre-scheduled event (e.g. a
        # Timeout) is popped off the queue without an explicit succeed()/fail().
        self._auto_value: Any = None

    @property
    def triggered(self) -> bool:
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            sim = self.sim
            if sim._fast:
                sim._ready.append(self)
            else:
                sim._seq += 1
                heapq.heappush(sim._heap, (sim.now, sim._seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exc
        if not self._scheduled:
            self._scheduled = True
            sim = self.sim
            if sim._fast:
                sim._ready.append(self)
            else:
                sim._seq += 1
                heapq.heappush(sim._heap, (sim.now, sim._seq, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately in the current step.
            fn(self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Event.__init__ inlined: a timeout is created on most timed waits.
        self.sim = sim
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = None
        self._scheduled = False
        self._auto_value = value
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """Drives a generator coroutine; the process itself is awaitable.

    The process event triggers when the generator returns (success, with the
    generator's return value) or raises (failure, with the exception).
    """

    __slots__ = ("_gen", "_waiting_on", "_wait_epoch", "name", "parent_proc",
                 "trace_on")

    def __init__(self, sim: "Simulator", gen: SimGen, name: str = ""):
        # Event.__init__ is inlined: process spawns are the hottest
        # allocation site in RPC-bound workloads, and the extra call plus
        # generic kick-off scheduling showed up in every profile.
        self.sim = sim
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = None
        self._scheduled = False
        self._auto_value = None
        self._gen = gen
        # Bumped every time the process starts waiting on a (new) event.
        # Interrupt delivery checks it alongside the event identity, so a
        # pooled event object reused for a later wait of the same process
        # can never satisfy a stale interrupt.
        self._wait_epoch = 0
        self.name = name or getattr(gen, "__name__", "process")
        # The process that spawned this one (None for top-level processes).
        # Observability uses the chain to parent spans across fan-outs.
        parent = sim._active_proc
        self.parent_proc: Optional["Process"] = parent
        # Per-process "tracing active" bit for sampled tracing: inherited
        # from the spawner so every process in a sampled operation's fan-out
        # keeps tracing. Only consulted while a sampling tracer is installed
        # (``sim._sample_tracer``); see Process._step.
        self.trace_on = False if parent is None else parent.trace_on
        # Kick off at the current time. The kick-off event is invisible to
        # user code, so it is drawn from (and recycled into) a freelist
        # (its callbacks slot is left None in the pool; the list literal
        # below refreshes it) and, on the fast kernel, appended to the
        # ready deque directly — a delay-0 schedule lands there anyway.
        if sim._fast:
            start = sim._start_pool.pop() if sim._start_pool else Event(sim)
            start._scheduled = True
            sim._ready.append(start)
        else:
            start = Event(sim)
            sim._schedule(start, 0)
        start.callbacks = [self._kickoff]
        self._waiting_on = start

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not Event._PENDING:
            return
        if self._waiting_on is not None:
            target = self._waiting_on
            epoch = self._wait_epoch

            def deliver(_ev: Event, self=self, cause=cause) -> None:
                # The process may have resumed (or died) through its awaited
                # event in the meantime; only interrupt if still waiting.
                # The epoch guards against the awaited event *object* being
                # recycled into a later wait of the same process.
                if (self._value is Event._PENDING
                        and self._waiting_on is target
                        and self._wait_epoch == epoch):
                    self._waiting_on = None
                    self._step(Interrupt(cause), throw=True)

            wake = Event(self.sim)
            self.sim._schedule(wake, 0)
            wake.callbacks.append(deliver)

    # -- internal ---------------------------------------------------------

    def _kickoff(self, event: Event) -> None:
        """First resume, via the pooled kick-off event.

        The run loop never touches an event after its callbacks fire, so
        the kick-off can be reset and recycled right here. A kick-off
        always succeeds with value ``None``; the epoch guard in
        :meth:`interrupt` keeps a recycled object from satisfying a stale
        interrupt aimed at a previous spawn."""
        sim = self.sim
        if sim._fast and len(sim._start_pool) < _START_POOL_MAX:
            # callbacks stays None and _scheduled True: the spawn path
            # overwrites both when it reuses the object.
            event._value = Event._PENDING
            event._ok = None
            sim._start_pool.append(event)
        if self._value is Event._PENDING and self._waiting_on is event:
            self._waiting_on = None
            self._step(None, throw=False)

    def _step(self, value: Any, throw: Optional[bool] = None) -> None:
        """Send ``value`` into (or, with ``throw``, raise it in) the
        generator and run it to its next wait.

        Registered as the callback of the event the process waits on, it
        is called with just that event and resumes the generator with the
        event's outcome — one call per resume."""
        if throw is None:
            if self._value is not Event._PENDING or self._waiting_on is not value:
                # Process finished, or was interrupted away from this event
                # and is now waiting on something else: this wake-up is
                # stale.
                return
            self._waiting_on = None
            throw = not value._ok
            value = value._value
        sim = self.sim
        gen = self._gen
        prev_active = sim._active_proc
        sim._active_proc = self
        # Sampled tracing: with a sampling tracer installed, ``sim._tracer``
        # is *context-local* — synced here from the per-process bit so every
        # instrumentation and elision site keeps its single ``sim._tracer``
        # check yet sees the tracer only inside sampled operations. One
        # attribute load + branch when sampling is off (the common case).
        st = sim._sample_tracer
        if st is not None:
            sim._tracer = st if self.trace_on else None
        fast = sim._fast
        ready = sim._ready
        heap = sim._heap
        PENDING = Event._PENDING
        try:
            while True:
                try:
                    if throw:
                        target = gen.throw(value)
                    else:
                        target = gen.send(value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - propagate via event
                    self.fail(exc)
                    return
                if not isinstance(target, Event):
                    gen.close()
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded non-event {target!r}"
                        )
                    )
                    return
                if target.sim is not sim:
                    gen.close()
                    self.fail(
                        SimulationError("yielded event belongs to another simulator"))
                    return
                # Immediate-resume fast path: the yielded event is exactly
                # the next one the run loop would process (front of the
                # ready deque, nothing due at ``now`` on the heap, and no
                # enclosing callback pass mid-flight). Consuming it here is
                # a pure inlining of the run loop: the reference (time,
                # seq) order is preserved event-for-event.
                if (fast and ready and ready[0] is target
                        and not sim._cb_pending
                        and not (heap and heap[0][0] <= sim.now)):
                    ready.popleft()
                    sim._n_inline += 1
                    if target._value is PENDING:
                        target._ok = True
                        target._value = target._auto_value
                    callbacks = target.callbacks
                    target.callbacks = None
                    if callbacks:
                        # Rare: the event has other waiters. Run them in
                        # registration order first; this generator's
                        # continuation is logically the final callback of
                        # the pass, so it counts as pending meanwhile.
                        base = sim._cb_pending
                        n = len(callbacks)
                        try:
                            for i in range(n):
                                sim._cb_pending = base + n - i
                                callbacks[i](target)
                        finally:
                            sim._cb_pending = base
                    value = target._value
                    throw = not target._ok
                    continue
                cbs = target.callbacks
                if cbs is None:
                    # Already processed (e.g. a pooled event consumed by an
                    # earlier waiter): continue with its settled value, the
                    # non-recursive equivalent of add_callback's immediate
                    # dispatch to a waiter.
                    value = target._value
                    throw = not target._ok
                    continue
                self._waiting_on = target
                self._wait_epoch += 1
                cbs.append(self._step)
                return
        finally:
            sim._active_proc = prev_active
            if st is not None:
                sim._tracer = (st if prev_active is not None
                               and prev_active.trace_on else None)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_done", "_index")

    #: AnyOf needs an event -> index map for O(1) first-trigger lookup;
    #: AllOf never looks indices up and skips building it.
    _NEEDS_INDEX = False

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        if self._NEEDS_INDEX:
            # Built before callbacks attach (an already-processed child
            # fires _on_child synchronously below). setdefault semantics:
            # duplicate children deterministically map to their first
            # position, matching list.index.
            index: dict = {}
            for i, ev in enumerate(self.events):
                if ev not in index:
                    index[ev] = i
            self._index = index
        else:
            self._index = None
        if not self.events:
            self._auto_value = []
            sim._schedule(self, 0)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; fails fast on failure.

    Value is the list of child values in the original order.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when the first child event triggers (value or failure).

    Value is ``(index, value)`` of the first event to fire.
    """

    __slots__ = ()

    _NEEDS_INDEX = True

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed((self._index[event], event._value))


class Simulator:
    """The event loop: a ready deque for now-events plus a time-ordered heap.

    ``fast=None`` (the default) follows :data:`DEFAULT_FAST`; ``fast=False``
    runs the reference heap-only scheduler with byte-identical semantics.
    """

    # Span tracer hook (set by repro.obs when tracing is enabled). A class
    # attribute so instrumented hot paths can read ``sim._tracer`` without
    # getattr defaults; ``None`` means tracing is off. With *sampled*
    # tracing the installed tracer lives in ``_sample_tracer`` and
    # ``_tracer`` becomes context-local: Process._step points it at the
    # tracer only while stepping a process whose ``trace_on`` bit is set.
    _tracer = None
    # The tracer installed in sampling mode (None = not sampling).
    _sample_tracer = None
    # Root-op observer (repro.obs: sampling decision + slow-op log + flight
    # recorder feed); consulted by the mount layer's VFS-op wrapper only.
    _obs_ops = None
    # Flight recorder (repro.obs.recorder.FlightRecorder). Subsystems feed
    # it via ``rec = sim._recorder; if rec is not None: rec.record(...)``.
    _recorder = None

    def __init__(self, fast: Optional[bool] = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ready: deque[Event] = deque()
        self._seq = 0
        self._fast = DEFAULT_FAST if fast is None else bool(fast)
        # Process currently being stepped (i.e. whose generator frame is on
        # the Python stack). Spawning a Process inside it records the chain.
        self._active_proc: Optional[Process] = None
        # Number of callbacks still pending in enclosing multi-callback
        # passes. Non-zero blocks every inline fast path: the reference
        # scheduler would run those callbacks before any freshly-queued
        # event.
        self._cb_pending = 0
        # Freelist of engine-owned Timeout objects (resource holds, link
        # latency); see _timeout_acquire/_timeout_release.
        self._timeout_pool: list[Timeout] = []
        # Freelist of process kick-off events (see Process._kickoff).
        self._start_pool: list[Event] = []
        # Kernel counters (see repro.sim.stats.kernel_counters).
        self._n_steps = 0    # events processed through the run loop
        self._n_inline = 0   # events consumed inline by Process._step

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        t = self.now + delay
        if self._fast and t == self.now:
            # Due right now (delay 0, or a positive delay absorbed by float
            # rounding): FIFO ready queue, no heap traffic. Routing by the
            # *effective* time keeps the heap free of now-events scheduled
            # at now, which is what makes heap-before-deque draining
            # equivalent to seq order.
            self._ready.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, event))

    def _queue_event(self, event: Event) -> None:
        """Queue an externally-triggered (succeed/fail) event for processing."""
        if not event._scheduled:
            self._schedule(event, 0)

    def _inline_ok(self) -> bool:
        """True iff an event queued *now* would be the very next thing the
        run loop processes — the condition under which short-circuiting an
        Event round-trip (zero-hold resource use, zero-latency hop)
        preserves the reference event order exactly."""
        return (self._fast and not self._ready and not self._cb_pending
                and not (self._heap and self._heap[0][0] <= self.now))

    # -- internal object reuse --------------------------------------------

    def _timeout_acquire(self, delay: float) -> Timeout:
        """A Timeout for engine-owned waits (resource holds, link latency).

        May return a recycled instance; the caller must hand it back via
        :meth:`_timeout_release` after its yield completes, and must never
        expose it to user code."""
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t._value = Event._PENDING
            t._ok = None
            t.callbacks = []
            t.delay = delay
            # _schedule inlined; the pool only fills on the fast kernel.
            t._scheduled = True
            at = self.now + delay
            if at == self.now:
                self._ready.append(t)
            else:
                self._seq += 1
                heapq.heappush(self._heap, (at, self._seq, t))
            return t
        return Timeout(self, delay)

    def _timeout_release(self, t: Timeout) -> None:
        if (self._fast and t.callbacks is None
                and len(self._timeout_pool) < _TIMEOUT_POOL_MAX):
            self._timeout_pool.append(t)

    # -- public API --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: SimGen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def _run_callbacks(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            callbacks[0](event)
        elif callbacks:
            self._run_multi(event, callbacks)

    def _run_multi(self, event: Event, callbacks: list) -> None:
        # While callback i runs, the callbacks after it are "pending":
        # every inline fast path stays disabled so the freshly-queued
        # events they produce cannot jump ahead of the rest of this pass.
        base = self._cb_pending
        n = len(callbacks)
        try:
            for i in range(n):
                self._cb_pending = base + n - i - 1
                callbacks[i](event)
        finally:
            self._cb_pending = base

    def step(self) -> None:
        """Process a single event."""
        ready = self._ready
        heap = self._heap
        # Heap entries due at ``now`` were scheduled before the clock got
        # here and carry smaller seq values than anything in the deque:
        # drain them first (identical to reference (time, seq) order).
        if ready and not (heap and heap[0][0] <= self.now):
            event = ready.popleft()
        else:
            time, _seq, event = heapq.heappop(heap)
            assert time >= self.now, "event scheduled in the past"
            self.now = time
        self._n_steps += 1
        if event._value is Event._PENDING:
            # Pre-scheduled event (Timeout, process kick-off, empty condition)
            # reaching its due time: it succeeds with its auto value.
            event._ok = True
            event._value = event._auto_value
        self._run_callbacks(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError("cannot run backwards in time")
        ready = self._ready
        heap = self._heap
        pop = heapq.heappop
        PENDING = Event._PENDING
        while ready or heap:
            if ready and not (heap and heap[0][0] <= self.now):
                event = ready.popleft()
            else:
                if until is not None and not ready and heap[0][0] > until:
                    self.now = until
                    return
                t, _seq, event = pop(heap)
                self.now = t
            self._n_steps += 1
            if event._value is PENDING:
                event._ok = True
                event._value = event._auto_value
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            elif callbacks:
                self._run_multi(event, callbacks)
        if until is not None:
            self.now = until

    def run_until(self, event: Event) -> None:
        """Process events until ``event`` has triggered.

        The :meth:`run` loop with a stop condition checked before every
        event, so it stops exactly where ``while not event.triggered:
        step()`` would, without two extra calls per event. Raises
        :class:`SimulationError` naming the still-pending processes if the
        queues drain first."""
        ready = self._ready
        heap = self._heap
        pop = heapq.heappop
        PENDING = Event._PENDING
        n = 0
        try:
            while event._value is PENDING:
                if ready and not (heap and heap[0][0] <= self.now):
                    ev = ready.popleft()
                elif heap:
                    t, _seq, ev = pop(heap)
                    self.now = t
                else:
                    raise SimulationError(
                        "deadlocked: no more events; still pending: "
                        + ", ".join(_pending_names(event)))
                n += 1
                if ev._value is PENDING:
                    ev._ok = True
                    ev._value = ev._auto_value
                callbacks = ev.callbacks
                ev.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](ev)
                elif callbacks:
                    self._run_multi(ev, callbacks)
        finally:
            self._n_steps += n

    def run_process(self, gen: SimGen, name: str = "") -> Any:
        """Convenience: run ``gen`` to completion and return its value.

        Raises the process's exception if it failed. Other already-scheduled
        events continue to be processed as needed.
        """
        proc = self.process(gen, name=name)
        self.run_until(proc)
        if not proc._ok:
            raise proc._value
        return proc._value


def _pending_names(event: Event) -> list:
    """Names of the processes ``event`` still waits on, for deadlock errors."""
    waits = event.events if isinstance(event, _Condition) else [event]
    names = [repr(ev.name) for ev in waits
             if isinstance(ev, Process) and ev._value is Event._PENDING]
    return names or [repr(event)]
