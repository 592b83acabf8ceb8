"""Skewed ("hot data") access workloads (§2).

"Data access patterns are becoming more unpredictable ... 'Hot data' will
be hit extremely hard."  Keys are drawn Zipf-like over a block population:
a small head of blocks absorbs most of the traffic, which is what exposes
controller hot spots in partitioned designs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.stats import Tally

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.process import Process


class ZipfKeyGenerator:
    """Draws block keys with Zipf(s) popularity over ``population`` blocks."""

    def __init__(self, population: int, skew: float,
                 rng: np.random.Generator,
                 key_of: Callable[[int], Hashable] | None = None) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.population = population
        self.skew = skew
        self.rng = rng
        self.key_of = key_of or (lambda i: ("block", i))
        ranks = np.arange(1, population + 1, dtype=float)
        weights = ranks ** -skew if skew > 0 else np.ones(population)
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self) -> Hashable:
        """One key sampled from the Zipf popularity distribution."""
        rank = int(np.searchsorted(self._cdf, self.rng.random()))
        return self.key_of(min(rank, self.population - 1))

    def draw_many(self, count: int) -> list[Hashable]:
        """Vector-sample ``count`` keys in one numpy call: the keys
        ``count`` successive :meth:`draw` calls would return."""
        ranks = np.minimum(np.searchsorted(self._cdf, self.rng.random(count)),
                           self.population - 1)
        key_of = self.key_of
        return [key_of(r) for r in ranks.tolist()]


#: Arrival gaps and keys drawn per numpy call.
_BATCH = 1024


class HotspotWorkload:
    """Open-loop Zipf read traffic at a fixed arrival rate.

    Gaps and keys are drawn ``_BATCH`` at a time and consumed in order,
    which yields the same values as one scalar draw per request: numpy's
    ``Generator`` fills a vector with the values successive scalar calls
    return.  That holds only while the two draws come from distinct
    streams, so ``rng`` must not be the key generator's rng (a shared
    stream would be read in a different order).  The unconsumed rest of
    each batch stays on the instance: a second :meth:`run` continues both
    streams where the first stopped.
    """

    def __init__(self, sim: "Simulator", generator: ZipfKeyGenerator,
                 issue: Callable[[Hashable], Event],
                 arrival_rate: float, duration: float,
                 rng: np.random.Generator) -> None:
        if arrival_rate <= 0 or duration <= 0:
            raise ValueError("arrival_rate and duration must be > 0")
        if rng is generator.rng:
            raise ValueError("arrivals and keys need distinct rng streams")
        self.sim = sim
        self.generator = generator
        self.issue = issue
        self.arrival_rate = arrival_rate
        self.duration = duration
        self.rng = rng
        self.latency = Tally()
        self.issued = 0
        self.completed = 0
        self.failures = 0
        # Drawn but not yet consumed, in reverse so pop() takes the next.
        self._gaps: list[float] = []
        self._keys: list[Hashable] = []

    def run(self) -> "Process":
        """Start the open-loop arrival process; returns its completion."""
        return self.sim.process(self._run(), name="hotspot")

    def _run(self):
        end = self.sim.now + self.duration
        pending: list[Event] = []
        gaps, keys = self._gaps, self._keys
        while self.sim.now < end:
            if not gaps:
                gaps += reversed(self.rng.exponential(
                    1.0 / self.arrival_rate, _BATCH).tolist())
            yield self.sim.timeout(gaps.pop())
            if self.sim.now >= end:
                break
            if not keys:
                keys += reversed(self.generator.draw_many(_BATCH))
            key = keys.pop()
            pending.append(self.sim.process(self._one(key),
                                            name="hotspot.req"))
            self.issued += 1
        if pending:
            yield self.sim.all_of(pending)

    def _one(self, key: Hashable):
        start = self.sim.now
        try:
            yield self.issue(key)
            self.latency.record(self.sim.now - start)
            self.completed += 1
        except FAULT_EXCEPTIONS:
            self.failures += 1
