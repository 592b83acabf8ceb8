"""Core event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future.  Processes yield events to wait on
them; resources and links succeed events to wake waiters.  Composite
conditions (:class:`AllOf`, :class:`AnyOf`) build barriers and races.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .faults import SimulatedFault, is_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

PENDING = object()


class Event:
    """A one-shot occurrence with a value, scheduled on a simulator.

    Lifecycle: *pending* → ``succeed``/``fail`` (triggered) → callbacks run
    when the simulator processes it.  Events may only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False

    # -- state queries ------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (succeed/fail called)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value accessed before it was triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` (processed now)."""
        if self._value is not PENDING:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._push((sim.now, next(sim._seq), self, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception that waiters will receive."""
        if self._value is not PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._push((sim.now, next(sim._seq), self, None))
        return self

    # -- waiting ------------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed, ``fn`` runs immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.sim = sim
        self.callbacks = []
        self._processed = False
        self._ok = True
        self._value = value
        sim._push((sim.now + delay, next(sim._seq), self, None))


class ConditionError(Exception):
    """Raised into waiters when a sub-event of a condition fails.

    The losing sub-event's exception is attached as ``__cause__``.  A
    barrier over a bug stays a plain ``ConditionError``, which no
    recovery handler catches, so the bug crashes the run.
    """


class ConditionFault(ConditionError, SimulatedFault):
    """A condition failed because a sub-event failed with a simulated fault.

    A barrier over a fault is a fault: recovery code catches it through
    :data:`~repro.sim.faults.FAULT_EXCEPTIONS` like any other.
    """


def _condition_error(sub_exc: BaseException) -> ConditionError:
    cls = ConditionFault if is_fault(sub_exc) else ConditionError
    err = cls(f"sub-event failed: {sub_exc!r}")
    err.__cause__ = sub_exc
    return err


class _Condition(Event):
    """Shared machinery for AllOf / AnyOf, which each define
    ``_on_child``."""

    __slots__ = ("events", "_outstanding")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._outstanding = 0
        if not self.events:
            self._ok = True
            self._value = {}
            self.sim._enqueue(0.0, self)
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all condition events must share a simulator")
        for ev in self.events:
            self._outstanding += 1
            ev.add_callback(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        """The values of the children that have succeeded so far."""
        return {ev: ev._value for ev in self.events
                if ev._processed and ev._ok}


class AllOf(_Condition):
    """Succeeds when every sub-event has succeeded (a barrier).

    Its value is a dict of ``{event: value}`` for all sub-events.  Fails if
    any sub-event fails.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(_condition_error(ev.value))
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when the first sub-event succeeds (a race).

    Its value is a dict of the sub-events that had succeeded at trigger time.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(_condition_error(ev.value))
            return
        self.succeed(self._collect())
