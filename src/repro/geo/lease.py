"""Epoch-numbered home-site leases: write fencing across DR promotions.

A WAN partition followed by a disaster promotion creates two sites that
each believe they own a file's write authority — the classic split-brain
(XUFS and SCISPACE both fence it with epochs, PAPERS.md).  The lease
authority numbers each file's home tenure: every promotion increments the
epoch, and a writer still presenting the old epoch is *rejected loudly*
(:class:`EpochFencingError`) instead of silently applying bytes the
surviving lineage will never see.

The authority is deliberately a single in-sim oracle, not a replicated
consensus service: the paper's metacenter (§6-7) assumes an out-of-band
control plane for failover decisions, and the simulation's question is
what the *data path* does with fencing, not how the control plane elects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.telemetry import ComponentHealth, HealthState
from ..sim.faults import SimulatedFault

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ManagementPlane
    from ..sim.engine import Simulator


class EpochFencingError(SimulatedFault):
    """A write carried a stale home epoch and was fenced off.

    Subclassing :class:`SimulatedFault` keeps the repo's fault/bug
    contract: fencing only arises under injected disasters, and process
    boundaries must surface it as a failed operation — never swallow it
    as success, never crash the kernel as if it were a model bug.
    """


class HomeLease:
    """One file's current write-authority tenure."""

    __slots__ = ("path", "holder", "epoch", "granted_at")

    def __init__(self, path: str, holder: str, epoch: int,
                 granted_at: float) -> None:
        self.path = path
        self.holder = holder
        self.epoch = epoch
        self.granted_at = granted_at


class LeaseAuthority:
    """Grants, promotes, and checks per-file home leases."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.leases: dict[str, HomeLease] = {}
        #: path -> former holders fenced by a promotion and not yet
        #: reconciled back in.  Non-empty means a split-brain window is
        #: still open somewhere (health DEGRADED).
        self.fenced: dict[str, set[str]] = {}
        self.stale_writes_rejected = 0

    # -- tenure control -------------------------------------------------------

    def grant(self, path: str, holder: str) -> HomeLease:
        """First grant for a path (registration time), epoch 1."""
        if path in self.leases:
            raise ValueError(f"lease for {path!r} already granted")
        lease = HomeLease(path, holder, 1, self.sim.now)
        self.leases[path] = lease
        return lease

    def promote(self, path: str, new_holder: str) -> HomeLease:
        """DR promotion: bump the epoch and fence the old holder.

        The old holder may be dead right now; the fence record is what
        rejects its writes if it comes back believing it is still home.
        """
        lease = self.leases[path]
        if lease.holder != new_holder:
            self.fenced.setdefault(path, set()).add(lease.holder)
            if self.sim.obs is not None:
                self.sim.obs.log.warning(
                    "geo.lease", "lease_promoted", path=path,
                    old_holder=lease.holder, new_holder=new_holder,
                    epoch=lease.epoch + 1)
        lease.holder = new_holder
        lease.epoch += 1
        lease.granted_at = self.sim.now
        return lease

    def epoch(self, path: str) -> int:
        """Current epoch for a path (0 when never granted)."""
        lease = self.leases.get(path)
        return 0 if lease is None else lease.epoch

    def holder(self, path: str) -> str | None:
        lease = self.leases.get(path)
        return None if lease is None else lease.holder

    # -- the fence ------------------------------------------------------------

    def check_write(self, path: str, epoch: int | None) -> None:
        """Fence a stale writer; silent for current or epoch-less writes.

        ``epoch=None`` means the writer never captured an epoch (the
        pre-fencing call shape) — those are by definition issued against
        the current home, so they pass.  A *captured* epoch older than
        the lease's is a fenced split-brain write: counted, surfaced on
        the event log, and raised so it is never silently applied.
        """
        if epoch is None:
            return
        lease = self.leases.get(path)
        if lease is None or epoch == lease.epoch:
            return
        if epoch > lease.epoch:
            # A writer cannot be ahead of the authority that numbers the
            # epochs — that is a model bug, not an injected fault.
            raise ValueError(f"write epoch {epoch} ahead of lease epoch "
                             f"{lease.epoch} for {path!r}")
        self.stale_writes_rejected += 1
        if self.sim.obs is not None:
            self.sim.obs.log.warning(
                "geo.lease", "stale_epoch_rejected", path=path,
                write_epoch=epoch, lease_epoch=lease.epoch,
                holder=lease.holder)
        raise EpochFencingError(
            f"stale epoch {epoch} (current {lease.epoch}) for {path!r}: "
            f"home is {lease.holder}")

    def note_rejoined(self, path: str, site_name: str) -> None:
        """A fenced former holder finished reconciling back in."""
        holders = self.fenced.get(path)
        if holders is None:
            return
        holders.discard(site_name)
        if not holders:
            del self.fenced[path]

    def fenced_holders(self, path: str) -> set[str]:
        return set(self.fenced.get(path, ()))

    # -- health ---------------------------------------------------------------

    def health(self) -> ComponentHealth:
        open_fences = sum(len(h) for h in self.fenced.values())
        if open_fences:
            state = HealthState.DEGRADED
            detail = f"{open_fences} fenced holder(s) awaiting reconcile"
        else:
            state = HealthState.UP
            detail = ""
        return ComponentHealth("geo.lease", state, metrics={
            "leases": float(len(self.leases)),
            "open_fences": float(open_fences),
            "stale_writes_rejected": float(self.stale_writes_rejected),
        }, detail=detail)

    def register_health(self, mgmt: "ManagementPlane") -> None:
        mgmt.register("geo.lease", self.health)
