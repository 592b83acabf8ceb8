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

    READ_NAME = "farm.read"
    WRITE_NAME = "farm.write"

    def __init__(self, sim: "Simulator", bandwidth: float = 1.2e9,
                 latency: float = 0.008, name: str = "farmfeed") -> None:
        self.sim = sim
        self.link = FairShareLink(sim, bandwidth, name=name)
        self.latency = latency

    def read(self, key, nbytes):
        return self._access(nbytes, self.READ_NAME)

    def write(self, key, nbytes):
        # Distinct from read so traces and event logs can tell farm read
        # traffic from write-back/destage traffic.
        return self._access(nbytes, self.WRITE_NAME)

    def _access(self, nbytes, name):
        sim = self.sim
        done = sim.event()
        if sim.obs is not None:
            # Named process so the operation is attributable in event logs.
            sim.process(self._run(nbytes, done), name=name)
        else:
            # Deferred-call fast path: same simulated timing (positioning
            # latency, then the shared-link transfer), no generator Process.
            sim.call_in(self.latency,
                        lambda: self.link.transfer(nbytes).add_callback(
                            lambda _ev: done.succeed(nbytes)))
        return done

    def _run(self, nbytes, done):
        yield self.sim.timeout(self.latency)
        yield self.link.transfer(nbytes)
        done.succeed(nbytes)


__all__ = ["AggregateFarm"]
