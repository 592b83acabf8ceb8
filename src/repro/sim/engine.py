"""The discrete-event simulation engine.

A tiny, deterministic event kernel in the style of SimPy: a time-ordered heap
of events, generator-based processes, and helpers for timeouts and run-until
loops.  Determinism is guaranteed by a monotonically increasing sequence
number that breaks time ties in FIFO order.

Hot-path notes (see docs/performance.md):

* The event queue is a plain list kept in heap order through the C
  ``heappush``/``heappop``.  Entries are ``(time, seq, event, callback)``
  tuples; ``seq`` is unique so the event/callback fields are never compared.
* Every way of advancing time — :meth:`Simulator.run` with no bound, a time
  bound or an event bound, and :meth:`Simulator.step` — goes through one
  inlined dispatch loop (:meth:`Simulator._dispatch`) that keeps the queue
  and the event counter in locals.  An attached
  :class:`~repro.obs.profiler.KernelProfiler` is consulted from the same loop
  behind one local ``is not None`` test.
* ``event is None`` entries are the *deferred-call* fast path
  (:meth:`Simulator.call_in` / :meth:`Simulator.call_at`): the callback runs
  with no arguments and no Event object is ever allocated.  Simple
  delay-then-callback patterns (link grants, farm-feed latency) use this
  instead of spawning a generator :class:`~repro.sim.process.Process`.
* A :class:`Timeout` is an ordinary :class:`Event`: once fired it stays
  processed with its value, and model code may keep it and add callbacks
  to it like any other event.  Fired timeouts are not recycled; a free
  list measured no faster on the declared perf workloads (see
  docs/performance.md).
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGen

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability
    from ..obs.profiler import KernelProfiler

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """Event loop owning simulated time.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.process(hello())
    >>> sim.run()
    >>> p.value
    3.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple] = []
        #: The single push entry point every event source goes through
        #: (``events.py``/``process.py`` included): the C ``heappush``
        #: partially applied to the queue.
        self._push: Callable[[tuple], None] = partial(heappush, self._queue)
        self._seq = count()
        self.events_processed: int = 0
        #: Observability bundle (``None``: off).  ``repro.obs.enable`` it
        #: before building components, which bind series handles from it;
        #: while off, spans and log records cost one ``is None`` test.
        self.obs: "Observability | None" = None
        #: Kernel self-profiler hook (see :mod:`repro.obs.profiler`), read
        #: once per dispatch-loop entry; attach via :meth:`attach_profiler`.
        self.profiler: "KernelProfiler | None" = None

    # -- scheduling (kernel internal) ----------------------------------------

    def _enqueue(self, delay: float, event: Event,
                 callback: Callable[[Event], None] | None = None) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} into the past")
        self._push((self.now + delay, next(self._seq), event, callback))

    # -- deferred-call fast path ----------------------------------------------

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated seconds.

        The zero-allocation alternative to ``timeout(delay).add_callback``
        for fire-and-forget deferred work: no Event object exists, so there
        is nothing to wait on — use :meth:`timeout` when a process must
        yield on the delay.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} into the past")
        self._push((self.now + delay, next(self._seq), None, fn))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})")
        self._push((when, next(self._seq), None, fn))

    # -- public factory helpers ----------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, to be succeeded/failed by model code."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier: succeeds when all ``events`` have succeeded."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race: succeeds when the first of ``events`` succeeds."""
        return AnyOf(self, list(events))

    def attach_profiler(self, **kwargs) -> "KernelProfiler":
        """Attach a fresh :class:`~repro.obs.profiler.KernelProfiler`.

        Pure observation: counts, sampled wall attribution, and heap-depth
        samples — never simulation semantics.  Detach with
        ``sim.profiler = None``.
        """
        from ..obs.profiler import KernelProfiler  # local: import cycle
        self.profiler = KernelProfiler(self, **kwargs)
        return self.profiler

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`SimulationError` when no events are queued.
        """
        if not self._queue:
            raise SimulationError("no events queued")
        self._dispatch(-_INF)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none are queued."""
        q = self._queue
        return q[0][0] if q else _INF

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until simulated time reaches that instant.
        * ``until=<Event>`` — run until the event is processed; returns its
          value (raising if it failed).
        """
        q = self._queue
        if until is None:
            if q:
                self._dispatch(_INF)
            return None
        if isinstance(until, Event):
            stop = until
            if not stop._processed and q:
                self._dispatch(_INF, stop)
            if not stop._processed:
                raise SimulationError(
                    "simulation ran out of events before `until` fired")
            if not stop.ok:
                raise stop.value
            return stop.value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self.now})")
        if q and q[0][0] <= horizon:
            self._dispatch(horizon)
        self.now = horizon
        return None

    def _dispatch(self, horizon: float, stop: Event | None = None) -> None:
        """The kernel's one dispatch loop.

        Pops and dispatches events until the queue is empty, the next event
        lies beyond ``horizon``, or ``stop`` has been processed.  The exit
        test runs *after* each dispatch, so the caller guarantees the first
        event is due; :meth:`step` is this loop with a horizon of −∞.

        The per-event interpreter overhead of method calls and repeated
        attribute loads is the single largest cost in timeout-heavy runs,
        so the queue, the profiler and the event counter live in locals and
        the counter is flushed once on exit (exceptions included).
        """
        q = self._queue
        pop = heappop
        profiler = self.profiler
        processed = 0
        try:
            while True:
                when, _seq, event, callback = pop(q)
                self.now = when
                processed += 1
                if profiler is not None:
                    profiler.observe(event, callback, len(q))
                if event is None:
                    callback()  # deferred-call fast path
                elif callback is not None:
                    # Direct delivery (interrupts, process start): bypass
                    # the event's own callbacks.
                    callback(event)
                elif not event._processed:
                    event._processed = True
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                if not q or q[0][0] > horizon \
                        or (stop is not None and stop._processed):
                    return
        finally:
            self.events_processed += processed
