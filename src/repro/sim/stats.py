"""Metric collectors for simulation output.

Tallies (per-observation), time-weighted averages (levels like queue
depth or utilization) and counters.  A component's own event counts are
plain attributes on that component (``self.sweeps += 1``), read directly
by its ``summary()``, health probe and the reports; :class:`MetricSet`
is the pooled cache's named report, the one registry that is enumerated
(``NetStorageSystem.report()`` fingerprints its snapshot).  Percentiles
come from stored samples (numpy) since run sizes here are modest.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Tally:
    """Streaming mean/variance/min/max of per-event observations.

    Uses Welford's algorithm, and keeps raw samples for percentiles.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._samples.append(value)

    def mean(self) -> float:
        """Arithmetic mean of recorded observations (0 when empty)."""
        return self._mean if self.count else 0.0

    def variance(self) -> float:
        """Sample variance (ddof=1; 0 with fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of recorded samples."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def percentiles(self, qs: "list[float]") -> list[float]:
        """Several percentiles in one pass."""
        if not self._samples:
            return [0.0] * len(qs)
        return [float(v) for v in
                np.percentile(np.asarray(self._samples), qs)]

    def samples(self) -> np.ndarray:
        """Raw samples as a numpy array."""
        return np.asarray(self._samples, dtype=float)


class TimeWeighted:
    """Time-weighted average of a piecewise-constant level.

    ``record(v)`` declares the level is ``v`` from now on; ``mean()``
    integrates over elapsed simulated time.
    """

    def __init__(self, sim: "Simulator", initial: float = 0.0) -> None:
        self.sim = sim
        self._level = float(initial)
        self._last = sim.now
        self._area = 0.0
        self._start = sim.now
        self.max = float(initial)

    @property
    def level(self) -> float:
        """The current level."""
        return self._level

    def record(self, value: float) -> None:
        """Declare the level to be ``value`` from now on."""
        now = self.sim.now
        self._area += self._level * (now - self._last)
        self._last = now
        self._level = float(value)
        if value > self.max:
            self.max = float(value)

    def add(self, delta: float) -> None:
        """Adjust the level by ``delta`` (convenience for queue counters)."""
        self.record(self._level + delta)

    def mean(self) -> float:
        """Time-weighted average of the level since creation."""
        now = self.sim.now
        elapsed = now - self._start
        if elapsed <= 0:
            return self._level
        area = self._area + self._level * (now - self._last)
        return area / elapsed


class Counter:
    """A plain integer counter with a convenience increment API."""

    def __init__(self) -> None:
        self.value = 0

    def incr(self, by: int = 1) -> None:
        """Increase the counter by ``by``."""
        self.value += by


class MetricSet:
    """A named registry of counters and tallies, flattened by :meth:`snapshot`.

    The pooled cache's report (``CacheCluster.metrics``):

    >>> cluster.metrics.tally("integrity.repair_latency").record(0.004)
    >>> cluster.metrics.counter("read.miss").incr()
    """

    #: Percentiles included per tally in :meth:`snapshot`.
    SNAPSHOT_PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(self) -> None:
        self._tallies: dict[str, Tally] = {}
        self._counters: dict[str, Counter] = {}

    def tally(self, name: str) -> Tally:
        """The named Tally, created on first use."""
        if name not in self._tallies:
            self._tallies[name] = Tally()
        return self._tallies[name]

    def counter(self, name: str) -> Counter:
        """The named Counter, created on first use."""
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def snapshot(self) -> dict[str, float]:
        """Flatten every collector into a name→value report.

        Tallies report mean/count always, plus min/max/std and the
        :data:`SNAPSHOT_PERCENTILES` (p50/p95/p99) once they have data.
        """
        out: dict[str, float] = {}
        for name, t in self._tallies.items():
            out[f"{name}.mean"] = t.mean()
            out[f"{name}.count"] = t.count
            if t.count:
                out[f"{name}.min"] = t.min
                out[f"{name}.max"] = t.max
                out[f"{name}.std"] = t.std()
                for q, v in zip(self.SNAPSHOT_PERCENTILES,
                                t.percentiles(list(self.SNAPSHOT_PERCENTILES))):
                    out[f"{name}.p{q:g}"] = v
        for name, c in self._counters.items():
            out[name] = c.value
        return out
