"""Shared retry policy: exponential backoff + jitter + deadline budget.

Before this module every recovery site rolled its own loop (fixed idle
waits in the geo pump, destage re-queues, silent swallowing elsewhere).
:class:`RetryPolicy` centralizes the shape — capped exponential backoff,
optional deterministic jitter from a seeded generator, an attempt cap and
a wall-clock (simulated) deadline — and :func:`retry_call` applies it to
any ``() -> Event`` operation inside a simulation process.

Only *simulated* failures (:data:`repro.sim.faults.FAULT_EXCEPTIONS`) are
retried; programming errors re-raise on the first attempt so injection
campaigns cannot mask model bugs.  When the budget runs out the caller
receives :class:`RetryExhausted` whose ``last_error`` (and ``__cause__``)
is the final underlying failure — the error that actually mattered, not a
generic "gave up".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS, SimulatedFault

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class RetryExhausted(SimulatedFault):
    """Every attempt failed with a simulated fault; the budget is spent.

    ``last_error`` is the underlying exception of the *final* attempt —
    also chained as ``__cause__`` so tracebacks and fault classification
    see through it.
    """

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"retry budget exhausted after {attempts} attempt(s): "
            f"{last_error!r}")
        self.attempts = attempts
        self.last_error = last_error
        self.__cause__ = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """How long to keep trying, and how to space the tries.

    ``attempts`` caps total tries (1 = no retry).  Backoff before retry
    *n* (n >= 1) is ``min(base_delay * multiplier**(n-1), max_delay)``,
    optionally inflated by up to ``jitter`` fraction drawn from a seeded
    generator (deterministic per stream — same seed, same backoff
    sequence).  ``deadline`` bounds the cumulative simulated time spent
    (measured from the first attempt): a retry that cannot *start* before
    the deadline is not made.
    """

    attempts: int = 4
    base_delay: float = 0.010
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.0
    deadline: float = float("inf")

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, retry_index: int,
                rng: np.random.Generator | None = None) -> float:
        """Delay before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        delay = min(self.base_delay * self.multiplier ** (retry_index - 1),
                    self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


#: Plumbing default: try once, never wait — behaviourally identical to no
#: retry layer at all.  Components accept a policy and default to this so
#: fault-free runs reproduce pre-framework traces byte for byte.
NO_RETRY = RetryPolicy(attempts=1)


def retry_call(sim: "Simulator", op: Callable[[], Event],
               policy: RetryPolicy,
               rng: np.random.Generator | None = None,
               component: str = ""):
    """Process fragment: ``result = yield from retry_call(...)``.

    Calls ``op()`` (which must return a fresh completion Event per call)
    until it succeeds, retrying simulated faults per ``policy``.  Emits a
    WARNING event per retry when observability is on and ``component`` is
    set.  Raises :class:`RetryExhausted` carrying the last underlying
    error, or re-raises immediately for non-fault exceptions.
    """
    if policy.attempts == 1:
        # Single-attempt passthrough: one yield, no wrapping — the
        # ``NO_RETRY`` default is behaviourally identical (same events,
        # same exception types) to having no retry layer at all.
        result = yield op()
        return result
    start = sim.now
    attempt = 1
    while True:
        try:
            result = yield op()
            return result
        except FAULT_EXCEPTIONS as exc:
            if attempt >= policy.attempts:
                raise RetryExhausted(attempt, exc) from exc
            delay = policy.backoff(attempt, rng)
            if sim.now + delay - start > policy.deadline:
                raise RetryExhausted(attempt, exc) from exc
            if component and sim.obs is not None:
                sim.obs.log.warning(component, "retry",
                                    attempt=attempt, delay=round(delay, 6),
                                    error=type(exc).__name__)
            attempt += 1
            yield sim.timeout(delay)

