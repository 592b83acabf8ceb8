"""Dual-controller baselines: Active-Passive and Active-Active (§6.1).

"The current state of the art in implementing 'safe' write-back cache
management is the use of Active-Active or Active-Passive controllers.
Such strategies, however, can survive at most a single point-of-failure
without data loss."  Both variants mirror dirty cache between exactly two
controllers; Active-Passive additionally takes a failover outage while
the standby trespasses the LUNs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..sim.events import Event
from ..sim.stats import TimeWeighted
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class DualControllerArray:
    """Two controllers, mirrored write cache, at most one survivable loss."""

    def __init__(self, sim: "Simulator", active_active: bool = False,
                 failover_time: float = 45.0,
                 cpu_per_io: float = us(50),
                 disk_latency: float = 0.008) -> None:
        self.sim = sim
        self.active_active = active_active
        self.failover_time = failover_time
        self.cpu_per_io = cpu_per_io
        self.disk_latency = disk_latency
        self.controllers_up = [True, True]
        self.dirty: set[Hashable] = set()
        self.lost_dirty_blocks: list[Hashable] = []
        self.available = TimeWeighted(sim, initial=1.0)
        self._failing_over = False

    # -- I/O -------------------------------------------------------------------------

    @property
    def serving(self) -> bool:
        return any(self.controllers_up) and not self._failing_over

    def write(self, key: Hashable) -> Event:
        """Write-back absorb, mirrored to the peer cache when it is up."""
        return self.sim.process(self._write(key), name="ap.write")

    def _write(self, key: Hashable):
        if not self.serving:
            raise RuntimeError("array unavailable (failover in progress)")
        yield self.sim.timeout(self.cpu_per_io)
        if all(self.controllers_up):
            # Cache mirror across the pair: one intra-array hop.
            yield self.sim.timeout(us(30))
        self.dirty.add(key)
        return "cached"

    # -- failures -----------------------------------------------------------------------

    def fail_controller(self, index: int) -> tuple[int, int]:
        """Kill one controller.

        Returns ``(salvaged, lost)`` dirty-block counts.  The first
        failure is survivable (the peer holds the mirror); the second
        loses everything dirty.  Active-Passive also takes the trespass
        outage when the *active* (index 0) dies.
        """
        if not self.controllers_up[index]:
            return (0, 0)
        self.controllers_up[index] = False
        if any(self.controllers_up):
            if not self.active_active and index == 0:
                self._begin_failover()
            return (len(self.dirty), 0)
        lost = list(self.dirty)
        self.lost_dirty_blocks.extend(lost)
        self.dirty.clear()
        self.available.record(0.0)
        return (0, len(lost))

    def _begin_failover(self) -> None:
        self._failing_over = True
        self.available.record(0.0)

        def run():
            yield self.sim.timeout(self.failover_time)
            self._failing_over = False
            if any(self.controllers_up):
                self.available.record(1.0)

        self.sim.process(run(), name="ap.failover")

    def repair_controller(self, index: int) -> None:
        """Bring a controller back; service resumes if the pair can serve."""
        self.controllers_up[index] = True
        if self.serving:
            self.available.record(1.0)

    def availability(self) -> float:
        """Time-weighted fraction of time the array could serve I/O."""
        return self.available.mean()
