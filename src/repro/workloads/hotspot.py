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
        """Vector-sample ``count`` keys in one numpy call."""
        ranks = np.searchsorted(self._cdf, self.rng.random(count))
        return [self.key_of(int(min(r, self.population - 1))) for r in ranks]


class HotspotWorkload:
    """Open-loop Zipf read traffic at a fixed arrival rate."""

    def __init__(self, sim: "Simulator", generator: ZipfKeyGenerator,
                 issue: Callable[[Hashable], Event],
                 arrival_rate: float, duration: float,
                 rng: np.random.Generator) -> None:
        if arrival_rate <= 0 or duration <= 0:
            raise ValueError("arrival_rate and duration must be > 0")
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

    def run(self) -> "Process":
        """Start the open-loop arrival process; returns its completion."""
        return self.sim.process(self._run(), name="hotspot")

    def _run(self):
        end = self.sim.now + self.duration
        pending: list[Event] = []
        while self.sim.now < end:
            yield self.sim.timeout(
                float(self.rng.exponential(1.0 / self.arrival_rate)))
            if self.sim.now >= end:
                break
            key = self.generator.draw()
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
