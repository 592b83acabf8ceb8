"""Generator-based simulation processes.

A process wraps a Python generator that yields :class:`~repro.sim.events.Event`
objects; the kernel resumes the generator with the event's value when it
fires.  Processes are themselves events (their completion), so processes can
wait on each other, join in barriers, and be interrupted for failure
injection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

ProcessGen = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries caller context (e.g. the failure being injected).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _StartSignal:
    """Shared kick-off payload delivered to every new process.

    Starting a process used to allocate a throwaway succeeded Event; the
    direct-delivery channel only reads ``_ok``/``_value``, so one immutable
    singleton serves every start.
    """

    __slots__ = ()
    _ok = True
    _value = None


_START = _StartSignal()


class _InterruptSignal:
    """Minimal failed-delivery payload for :meth:`Process.interrupt`.

    Interrupts ride the direct-delivery channel, which reads only
    ``_ok``/``_value`` — a two-slot record instead of a full :class:`Event`
    with its callbacks list, the same trimming `_StartSignal` applied to
    process start.
    """

    __slots__ = ("_value",)
    _ok = False

    def __init__(self, cause: Any) -> None:
        self._value = Interrupt(cause)


class Process(Event):
    """A running generator; completes (as an event) when the generator does.

    The process event succeeds with the generator's return value, or fails
    with any exception the generator raises.  So a process is the
    completion event of the operation it runs: an operation returns
    ``sim.process(self._op(...))``, and its generator ``return``s the
    value or ``raise``s the error, with no second Event to resolve by
    hand.  A process that fails while nothing waits on it raises out of
    the kernel, so a failure always reaches someone.
    """

    __slots__ = ("gen", "_target", "name", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget a yield in the process function?")
        # Event.__init__ inlined, as in Timeout: one process per operation.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._processed = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Event | None = None
        # Evaluating ``self._resume`` allocates a bound-method object each
        # time; the process subscribes to one event per resume, so cache the
        # binding once for the process's whole lifetime.
        self._resume_cb = self._resume
        # Kick off at the current simulation time via the direct-delivery
        # channel (no per-process start Event).
        sim._push((sim.now, next(sim._seq), _START, self._resume_cb))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the waited-on event (the event may
        still fire for other waiters).
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        sim = self.sim
        sim._push((sim.now, next(sim._seq), _InterruptSignal(cause),
                   self._resume_cb))

    # -- kernel side ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            # Process finished between scheduling of an interrupt and its
            # delivery; nothing left to interrupt.
            return
        waiting_on = self._target
        if waiting_on is not None and event is not waiting_on:
            # An interrupt arrived while waiting on _target: detach.
            self._detach_from_target()
        # Drop the reference unconditionally: if the generator finishes or
        # raises below, a retained _target would keep the last awaited
        # event (and whatever its value holds) alive with the process.
        self._target = None
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            # Callers keep finished operations (a barrier's list of them),
            # so let go of the spent generator and of the reference cycle
            # through _resume_cb.
            self.gen = self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.gen = self._resume_cb = None
            if not self.callbacks:
                # Nobody is waiting on this process: surface the crash so
                # bugs in model code do not vanish silently.
                self.fail(exc)
                raise
            self.fail(exc)
            return
        try:
            target_callbacks = target.callbacks
        except AttributeError:
            error = RuntimeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances")
            self.gen.close()
            self.fail(error)
            raise error
        self._target = target
        if target_callbacks is not None:
            target_callbacks.append(self._resume_cb)
        else:
            # Target already processed: resume immediately (same semantics
            # as Event.add_callback on a processed event).
            self._resume(target)

    def _detach_from_target(self) -> None:
        target = self._target
        if target is None or target.callbacks is None:
            return
        try:
            target.callbacks.remove(self._resume_cb)
        except ValueError:
            pass
