"""Rolling, zero-downtime upgrades (§6.3).

"Upgrades could be applied incrementally across the system removing the
need for planned down time."  The coordinator drains one blade at a time,
waits for its in-flight work to finish, takes it down for the upgrade
duration, rejoins it, and only then moves to the next — refusing to start
on a blade if doing so would drop the cluster below the availability
floor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hardware.blade import BladeState
from .balancer import LoadBalancer
from .membership import ClusterMembership

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.process import Process


class UpgradeAbortedError(Exception):
    """Continuing would violate the minimum-live-blades floor."""


class RollingUpgrade:
    """Upgrade every blade, one at a time, while the cluster serves I/O."""

    def __init__(self, sim: "Simulator", membership: ClusterMembership,
                 balancer: LoadBalancer, upgrade_duration: float = 30.0,
                 min_live: int = 1, drain_poll: float = 0.01) -> None:
        if min_live < 1:
            raise ValueError(f"min_live must be >= 1, got {min_live}")
        self.sim = sim
        self.membership = membership
        self.balancer = balancer
        self.upgrade_duration = upgrade_duration
        self.min_live = min_live
        self.drain_poll = drain_poll
        self.upgraded: list[int] = []
        self.log: list[tuple[float, int, str]] = []

    def start(self) -> "Process":
        """Launch the rolling upgrade as a process; returns its completion."""
        return self.sim.process(self._run(), name="rolling_upgrade")

    def _run(self):
        for blade_id in sorted(self.membership.blades):
            blade = self.membership.blades[blade_id]
            if blade.state is BladeState.FAILED:
                self.log.append((self.sim.now, blade_id, "skipped (failed)"))
                continue
            if len(self.membership.live()) - 1 < self.min_live:
                raise UpgradeAbortedError(
                    f"upgrading blade {blade_id} would leave fewer than "
                    f"{self.min_live} live blades")
            blade.drain()
            self.log.append((self.sim.now, blade_id, "draining"))
            while not self.balancer.idle(blade_id) \
                    or blade.state is BladeState.UP:
                # A blade failed and repaired during the wait has rejoined:
                # drain it again (a no-op while it is DRAINING).
                blade.drain()
                yield self.sim.timeout(self.drain_poll)
            # Down for the flash/reboot window.  A bare write, not fail():
            # an upgrade loses no cache and notifies nobody.  The cached
            # live sets (membership, cache pool) stay right only because
            # the blade is DRAINING or FAILED here, neither of which a live
            # set holds; repair() below notifies them as usual.
            blade.state = BladeState.FAILED
            self.log.append((self.sim.now, blade_id, "down"))
            yield self.sim.timeout(self.upgrade_duration)
            blade.repair()
            self.upgraded.append(blade_id)
            self.log.append((self.sim.now, blade_id, "upgraded"))
        return self.upgraded
