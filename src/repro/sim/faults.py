"""Simulated-failure taxonomy: what may be *handled* vs what must crash.

The availability claims of the paper (§6) are exercised by injecting
failures — blade crashes, disk deaths, link flaps, whole-site disasters.
Model code recovering from those must never also swallow its own bugs, so
every exception that represents an *injected or modeled* failure derives
from :class:`SimulatedFault`, and recovery paths catch exactly
:data:`FAULT_EXCEPTIONS` — one ``except``, no second check.  The one
place an error is classified is where a barrier fails: an ``AllOf``/
``AnyOf`` over a fault raises :class:`~repro.sim.events.ConditionFault`
(itself a ``SimulatedFault``), over a bug a plain ``ConditionError``.
``TypeError``/``KeyError``/``AttributeError`` and barriers over them
fall through and crash the run loudly, as programming errors should.

Layering note: this module sits at the bottom of the stack (pure kernel,
no model imports) so ``hardware``, ``geo``, ``cache`` and ``protocols``
can all subclass :class:`SimulatedFault` without cycles; the full
fault-injection framework lives in :mod:`repro.faults`.
"""

from __future__ import annotations


class SimulatedFault(Exception):
    """Base class for every injected or modeled failure.

    Subclasses (``DiskFailedError``, ``BladeFailedError``,
    ``SiteFailedError``, ``NoRouteError``, ``LinkDownError``,
    ``ReplicationError``, ``TransientIOError``) mark an exception as part
    of the *simulated world*, safe for retry/degraded-mode handling.
    """


class TransientIOError(SimulatedFault):
    """A one-shot injected I/O error (medium glitch, dropped frame).

    Unlike a component failure there is nothing to repair: the next
    attempt may simply succeed, which is what retry policies are for.
    """


class LinkDownError(SimulatedFault):
    """A transfer was issued on a link that is flapped down / partitioned."""


class CorruptionError(SimulatedFault):
    """A checksum verification miss: the bytes read do not match the bytes
    written (bitrot, torn write, misdirected write, wire corruption).

    Carries enough addressing (``domain`` — the component name that found
    it, ``address``/``length`` — the corrupt range, ``kind`` — what was
    injected) for the repair escalation chain in :mod:`repro.integrity` to
    locate a good copy.
    """

    def __init__(self, domain: str, address, length: int = 0,
                 kind: str = "unknown") -> None:
        super().__init__(
            f"checksum mismatch on {domain} at {address!r} "
            f"(+{length}B, {kind})")
        self.domain = domain
        self.address = address
        self.length = length
        self.kind = kind


def find_corruption(exc: BaseException | None,
                    _depth: int = 8) -> "CorruptionError | None":
    """The :class:`CorruptionError` that ``exc`` is or wraps, if any.

    Mirrors :func:`is_fault`: walks ``__cause__`` chains so a
    ``ConditionFault`` from an ``all_of`` barrier over a failed disk read
    classifies by the verification miss underneath.
    """
    while exc is not None and _depth > 0:
        if isinstance(exc, CorruptionError):
            return exc
        exc = exc.__cause__
        _depth -= 1
    return None


#: What recovery code may catch: simulated faults (barriers over a fault
#: included, see :class:`~repro.sim.events.ConditionFault`) and ``OSError``
#: (the Python-native I/O failure — model backends use e.g.
#: ``IOError("medium error")`` for media defects).  Catch it in one step:
#: whatever it lets through is a bug.
FAULT_EXCEPTIONS = (SimulatedFault, OSError)


def is_fault(exc: BaseException | None, _depth: int = 8) -> bool:
    """True if ``exc`` is, or (transitively) wraps, a simulated failure.

    ``OSError`` counts: it is the language's own I/O-failure type, so a
    backend modeling a medium error with ``IOError`` classifies as a
    fault, while ``TypeError``/``KeyError``/``AttributeError`` never do.
    Walks ``__cause__`` chains so an error wrapping another classifies by
    what actually went wrong underneath.  Recovery handlers do not call
    it: a failing barrier classifies its sub-event's error once, and
    process boundaries use it to pick a log severity.
    """
    while exc is not None and _depth > 0:
        if isinstance(exc, (SimulatedFault, OSError)):
            return True
        exc = exc.__cause__
        _depth -= 1
    return False
