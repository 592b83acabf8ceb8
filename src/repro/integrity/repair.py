"""Repair escalation: cache replica → RAID parity → geo replica.

A verification miss is only the start; the paper's layers each hold a
potential good copy, and the chain tries them from cheapest to most
expensive: an N-way cache replica on a peer blade (§6.1), parity
reconstruction from the stripe's surviving members (§6.3), and finally a
WAN refetch from a geo replica (§6.2).  Each tier attempt runs under the
shared :class:`~repro.faults.retry.RetryPolicy`, a tier that is
structurally unavailable (no replica cached, single-site deployment) is
skipped without burning retries, and the outcome lands on the
:class:`~repro.integrity.manager.IntegrityManager` counters and the
chain's :class:`~repro.faults.state.RecoveryTracker`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

from ..faults.retry import RetryPolicy, retry_call
from ..faults.state import RecoveryTracker
from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS, SimulatedFault

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from .manager import IntegrityManager


class RepairFailed(SimulatedFault):
    """Every repair tier was skipped or exhausted its retries."""


@dataclass
class RepairRequest:
    """One corrupt range to make whole again.

    ``domain``/``address``/``length``/``kind`` locate the corruption (as
    carried by :class:`~repro.sim.faults.CorruptionError`).  The optional
    placement fields let tiers skip rediscovery: scrub fills
    ``stripe``/``member``/``disk`` from its walk, the cache read path
    fills ``key``; tier implementations accept either.
    """

    domain: str
    address: Hashable
    length: int
    kind: str
    key: Hashable | None = None
    stripe: int | None = None
    member: int | None = None      # position within the stripe's members
    disk: int | None = None        # pool disk index
    detail: dict = field(default_factory=dict)


#: A tier takes the request and returns either None (structurally not
#: applicable — skip without retrying) or a zero-arg callable producing
#: the repair-attempt Event (retried under the chain's policy).
TierFn = Callable[[RepairRequest], Callable[[], Event] | None]


class RepairChain:
    """Ordered escalation over repair tiers with retry + accounting."""

    def __init__(self, sim: "Simulator", manager: "IntegrityManager",
                 policy: RetryPolicy | None = None,
                 tracker: RecoveryTracker | None = None,
                 name: str = "integrity.repair") -> None:
        self.sim = sim
        self.manager = manager
        self.policy = policy or RetryPolicy(attempts=2, base_delay=0.005,
                                            multiplier=2.0, max_delay=0.5)
        self.tracker = tracker
        self.name = name
        self.tiers: list[tuple[str, TierFn]] = []
        #: (tier, outcome) -> count; outcome is ``skipped``, ``attempts``,
        #: ``failed`` or ``repaired``.
        self.counts: Counter[tuple[str, str]] = Counter()
        self.unrepairable = 0
        self._active = 0

    def add_tier(self, name: str, fn: TierFn) -> "RepairChain":
        """Append a tier; order of addition is escalation order."""
        self.tiers.append((name, fn))
        return self

    def repaired_by(self, tier: str) -> int:
        return self.counts[tier, "repaired"]

    def repair(self, req: RepairRequest) -> Event:
        """Escalate through the tiers; the event's value is the winning
        tier's name, or it fails with :class:`RepairFailed`."""
        return self.sim.process(self._run(req), name=f"{self.name}.run")

    def _run(self, req: RepairRequest):
        self._active += 1
        if self.tracker is not None and self._active == 1:
            self.tracker.degrade(f"repairing {req.kind} on {req.domain}")
        obs = self.sim.obs
        last_exc: BaseException | None = None
        try:
            for tier, fn in self.tiers:
                attempt = fn(req)
                if attempt is None:
                    self.counts[tier, "skipped"] += 1
                    continue
                self.counts[tier, "attempts"] += 1
                try:
                    yield from retry_call(self.sim, attempt, self.policy,
                                          component=self.name)
                except FAULT_EXCEPTIONS as exc:
                    last_exc = exc
                    self.counts[tier, "failed"] += 1
                    if obs is not None:
                        obs.log.warning(self.name, "tier_failed", tier=tier,
                                        domain=req.domain,
                                        fault_kind=req.kind,
                                        error=type(exc).__name__)
                    continue
                self.manager.clear(req.domain, req.address)
                self.manager.note_repaired(req.domain, req.address)
                self.counts[tier, "repaired"] += 1
                if obs is not None:
                    obs.log.info(self.name, "repaired", tier=tier,
                                 domain=req.domain, fault_kind=req.kind)
                return tier
            # Escalation exhausted: the corruption stands.
            self.manager.note_unrepairable(req.domain, req.address)
            self.unrepairable += 1
            if self.tracker is not None:
                self.tracker.fail(f"unrepairable {req.kind} on {req.domain}")
            if obs is not None:
                obs.log.critical(self.name, "unrepairable",
                                 domain=req.domain, address=repr(req.address),
                                 fault_kind=req.kind)
            raise RepairFailed(
                f"no tier could repair {req.kind} on {req.domain} "
                f"at {req.address!r}") from last_exc
        finally:
            self._active -= 1
            if self.tracker is not None and self._active == 0 \
                    and self.manager.unrepairable_total == 0:
                self.tracker.recovered("no repairs in flight")

    # -- management plane -------------------------------------------------------

    def health(self):
        from ..obs.telemetry import ComponentHealth, HealthState
        state = (HealthState.FAILED if self.unrepairable
                 else HealthState.DEGRADED if self._active
                 else HealthState.UP)
        metrics = {"active": float(self._active),
                   "unrepairable": float(self.unrepairable)}
        for tier, _fn in self.tiers:
            metrics[f"repaired.{tier}"] = float(self.repaired_by(tier))
        if self.tracker is not None:  # the repair walk's outage record
            metrics.update(self.tracker.health().metrics)
        return ComponentHealth(self.name, state, metrics=metrics,
                               detail=f"{len(self.tiers)} tiers")

    def register_health(self, mgmt) -> None:
        mgmt.register(self.name, self.health)
