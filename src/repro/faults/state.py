"""Explicit degraded-mode state machines for fault-bearing components.

Components under injection move through ``UP → DEGRADED → FAILED →
RECOVERING → UP`` rather than flipping a boolean: the intermediate states
are what the management plane (§5.2) and the availability experiment
(E12) need to report MTTR honestly.  :class:`RecoveryTracker` owns one
component's walk through those states, logs every transition through the
event log with a severity matching the direction of travel, and
accumulates outage intervals so ``availability()`` and ``mttr()`` fall
out of the record instead of being recomputed by each experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.telemetry import ComponentHealth, HealthState

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: Event-log severity per state entered (worse state, louder record).
_SEVERITY_KIND = {
    HealthState.UP: ("info", "recovered"),
    HealthState.DEGRADED: ("warning", "degraded"),
    HealthState.RECOVERING: ("info", "recovering"),
    HealthState.FAILED: ("error", "failed"),
}


class RecoveryTracker:
    """One component's health state machine over simulated time.

    ``failed`` here means *service-affecting* outage: time spent FAILED
    counts against availability and each FAILED → UP walk contributes one
    repair interval to MTTR.  DEGRADED and RECOVERING keep serving.
    """

    def __init__(self, sim: "Simulator", component: str) -> None:
        self.sim = sim
        self.component = component
        self.state = HealthState.UP
        #: (time, state) transition history, starting implicitly UP at 0.
        self.transitions: list[tuple[float, HealthState]] = []
        self.failures = 0
        self._failed_since: float | None = None
        self._downtime = 0.0
        #: closed outage lengths, one per FAILED interval (MTTR samples).
        self.repair_times: list[float] = []

    # -- transitions -----------------------------------------------------------

    def degrade(self, detail: str = "") -> None:
        """Partial loss: still serving, with reduced redundancy/headroom."""
        if self.state in (HealthState.UP, HealthState.RECOVERING):
            self._move(HealthState.DEGRADED, detail)

    def fail(self, detail: str = "") -> None:
        """Service-affecting outage begins."""
        if self.state is not HealthState.FAILED:
            self.failures += 1
            self._failed_since = self.sim.now
            self._move(HealthState.FAILED, detail)

    def begin_recovery(self, detail: str = "") -> None:
        """Repair underway (rebuild, failback, rejoin) but not done."""
        if self.state is HealthState.FAILED:
            self._close_outage()
            self._move(HealthState.RECOVERING, detail)

    def recovered(self, detail: str = "") -> None:
        """Back to full service."""
        if self.state is HealthState.UP:
            return
        self._close_outage()
        self._move(HealthState.UP, detail)

    def _close_outage(self) -> None:
        if self._failed_since is not None:
            outage = self.sim.now - self._failed_since
            self._downtime += outage
            self.repair_times.append(outage)
            self._failed_since = None

    def _move(self, state: HealthState, detail: str) -> None:
        self.state = state
        self.transitions.append((self.sim.now, state))
        obs = self.sim.obs
        if obs is not None:
            level, kind = _SEVERITY_KIND[state]
            getattr(obs.log, level)(self.component, kind, detail)

    # -- measurement -----------------------------------------------------------

    def downtime(self) -> float:
        """Total FAILED seconds so far (open outage counted to now)."""
        open_outage = (self.sim.now - self._failed_since
                       if self._failed_since is not None else 0.0)
        return self._downtime + open_outage

    def availability(self) -> float:
        """Fraction of elapsed time not spent FAILED (1.0 before t>0)."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime() / elapsed)

    def mttr(self) -> float:
        """Mean seconds from FAILED to leaving FAILED; 0 with no repairs."""
        if not self.repair_times:
            return 0.0
        return sum(self.repair_times) / len(self.repair_times)

    # -- management plane ------------------------------------------------------

    def health(self) -> ComponentHealth:
        metrics = {"failures": float(self.failures),
                   "downtime_s": self.downtime(),
                   "availability": self.availability(),
                   "mttr_s": self.mttr()}
        # Keyed like the probe: the bare target is the target's own probe.
        return ComponentHealth(f"{self.component}.recovery", self.state,
                               metrics=metrics, detail=self.state.value)

    def register_health(self, mgmt) -> None:
        mgmt.register(f"{self.component}.recovery", self.health)
