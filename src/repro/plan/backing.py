"""Aggregate backing-store models used by planned cache benches.

:class:`AggregateFarm` is the shared disk-farm feed the cache experiments
(E2, E3) put behind a :class:`~repro.cache.pool.CacheCluster` when
per-spindle detail isn't the point: the farm delivers at most
``bandwidth`` bytes/s in aggregate, with ``latency`` positioning cost per
access.  It lives with the planner so :meth:`~repro.plan.planner.
CacheBenchPlan.build` can construct it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.link import FairShareLink

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class AggregateFarm:
    """A shared disk-farm model: finite aggregate bandwidth + access latency."""

    def __init__(self, sim: "Simulator", bandwidth: float = 1.2e9,
                 latency: float = 0.008, name: str = "farmfeed") -> None:
        self.sim = sim
        self.link = FairShareLink(sim, bandwidth, name=name)
        self.latency = latency

    def read(self, key, nbytes):
        """Positioning latency, then the shared-link transfer."""
        done = self.sim.event()
        self.sim.call_in(self.latency,
                         lambda: self.link.transfer(nbytes).add_callback(
                             lambda _ev: done.succeed(nbytes)))
        return done

    write = read


__all__ = ["AggregateFarm"]
