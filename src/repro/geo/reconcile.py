"""Post-heal anti-entropy: walk divergent replicas and resynchronize.

After a WAN partition heals (or a fenced ex-home returns from a
disaster), the replicator *knows* which replicas fell behind — the
``divergence`` map — and which forks a failover stranded — the
``orphans`` map.  The :class:`ReconcileDaemon` turns that knowledge back
into convergence: it listens for up-transitions on the site/link graph,
waits a short settle delay, and ships the owed bytes through the same
WAN transfer + in-flight verification paths every other replica byte
takes.  Forks settle with a deterministic sim-time last-writer-wins
policy; a discarded fork is a *conflict*, counted and raised on the
event log and health plane rather than silently absorbed.

The daemon is strictly event-driven: with no up-transitions it schedules
nothing and spawns nothing, so a fault-free run with reconciliation
enabled is byte-identical (kernel events, metrics, fingerprint) to one
without — the repo's zero-cost-when-idle bar applied to robustness
machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.timeseries import bind_by_site
from ..sim.faults import FAULT_EXCEPTIONS
from .replication import GeoReplicator
from .wan import WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ManagementPlane
    from ..sim.engine import Simulator


class ReconcileDaemon:
    """Heals divergence after partitions; settles failover forks."""

    def __init__(self, sim: "Simulator", network: WanNetwork,
                 replicator: GeoReplicator,
                 settle_delay: float = 0.5) -> None:
        self.sim = sim
        self.network = network
        self.replicator = replicator
        #: How long after an up-transition to let routing/pumps settle
        #: before sweeping (heals often arrive as bursts of link repairs).
        self.settle_delay = settle_delay
        self.sweeps = 0
        #: Forks discarded by last-writer-wins (acked bytes lost, counted).
        self.conflicts = 0
        self.orphans_recovered = 0
        self.resynced_bytes = 0.0
        self._resync_bytes = bind_by_site(sim, "geo.reconcile.bytes")
        self.started = False
        self._pending = False
        self._sweeping = False
        self._resweep = False

    def start(self) -> "ReconcileDaemon":
        """Subscribe to topology transitions; idempotent; returns self."""
        if not self.started:
            self.started = True
            self.network.state_listeners.append(self._on_state)
        return self

    # -- trigger ---------------------------------------------------------------

    def _on_state(self, _obj, failed: bool) -> None:
        if failed:
            return
        # An up-transition is a heal candidate: something divergent may be
        # reachable again.  Coalesce bursts into one delayed sweep.
        if self._pending:
            return
        self._pending = True
        self.sim.call_in(self.settle_delay, self._begin_sweep)

    def _begin_sweep(self) -> None:
        self._pending = False
        rep = self.replicator
        if not rep.divergence and not rep.orphans:
            return
        if self._sweeping:
            self._resweep = True
            return
        self._sweeping = True
        self.sim.process(self._sweep(), name="geo.reconcile")

    def request_sweep(self) -> None:
        """Force a sweep now (tests, operator action); no settle delay."""
        if self._sweeping:
            self._resweep = True
            return
        self._sweeping = True
        self.sim.process(self._sweep(), name="geo.reconcile")

    # -- the sweep -------------------------------------------------------------

    def _sweep(self):
        rep = self.replicator
        self.sweeps += 1
        shipped_total = 0
        try:
            # Forks first: a recovered orphan mutates the lineage and fans
            # fresh divergence to the other replicas, which the divergence
            # walk below then ships in this same sweep.
            for key in sorted(rep.orphans):
                shipped_total += yield from self._settle_orphan(key)
            for key in sorted(rep.divergence):
                shipped_total += yield from self._ship_divergence(key)
        finally:
            self._sweeping = False
        if self.sim.obs is not None and shipped_total:
            self.sim.obs.log.info(
                "geo.reconcile", "sweep_complete",
                resynced_bytes=shipped_total,
                remaining_divergence=rep.total_divergence(),
                open_forks=len(rep.orphans))
        if self._resweep:
            self._resweep = False
            self._begin_sweep()

    def _settle_orphan(self, key: tuple[str, str]):
        """Deterministically settle one failover fork (sim-time LWW)."""
        rep = self.replicator
        path, old_home = key
        orphan = rep.orphans.get(key)
        if orphan is None:  # settled by an overlapping sweep
            return 0
        gf = rep.files[path]
        home = self.network.sites[gf.home]
        old = self.network.sites.get(old_home)
        if old is None or old.failed or home.failed \
                or not self.network.reachable(old, home):
            return 0  # still partitioned; next heal retries
        shipped = 0
        catchup = max(0, gf.size - orphan.size_at_fork)
        if orphan.nbytes > 0:
            if gf.last_write_at > orphan.last_write_at:
                # Concurrent fork: the surviving lineage wrote later, so
                # last-writer-wins discards the orphan — acked bytes are
                # lost to a *counted, surfaced* conflict, never silently.
                self.conflicts += 1
                if self.sim.obs is not None:
                    self.sim.obs.log.warning(
                        "geo.reconcile", "fork_conflict", path=path,
                        loser=old_home, winner=gf.home,
                        discarded_bytes=orphan.nbytes)
                # The fork's bytes on the ex-home must be overwritten by
                # the winning lineage.
                catchup += orphan.nbytes
            else:
                # The fork is strictly ahead: recover it into the lineage
                # through the normal verified WAN path.
                try:
                    yield self.network.transfer(old, home, orphan.nbytes)
                    yield from rep._wire_check(old, home, orphan.nbytes)
                    yield home.store_write(orphan.nbytes)
                except FAULT_EXCEPTIONS:
                    return 0  # heal interrupted; orphan stays for retry
                gf.version += 1
                gf.last_write_at = self.sim.now
                gf.site_versions[gf.home] = gf.version
                shipped += orphan.nbytes
                self.orphans_recovered += 1
                self._count_resync(gf.home, orphan.nbytes)
                # Every other replica now lacks the recovered bytes.
                for copy in sorted(gf.copies - {gf.home}):
                    rep._note_divergence(gf, copy, orphan.nbytes)
        del rep.orphans[key]
        if catchup > 0:
            # The ex-home catches up through the divergence walk.
            rep._note_divergence(gf, old_home, catchup)
        else:
            self._readmit(gf, old_home)
        return shipped

    def _ship_divergence(self, key: tuple[str, str]):
        """Ship one replica's owed bytes home -> replica, verified."""
        rep = self.replicator
        owed = rep.divergence.get(key)
        if owed is None or owed <= 0:
            return 0
        path, site_name = key
        gf = rep.files[path]
        home = self.network.sites[gf.home]
        target = self.network.sites.get(site_name)
        if target is None or target.failed or home.failed \
                or not self.network.reachable(home, target):
            return 0  # unreachable; stays on the books for the next heal
        try:
            yield self.network.transfer(home, target, owed)
            yield from rep._wire_check(home, target, owed)
            yield target.store_write(owed)
        except FAULT_EXCEPTIONS:
            return 0
        rep.clear_divergence(path, site_name, owed)
        gf.site_versions[site_name] = gf.version
        self._count_resync(site_name, owed)
        if not rep.divergence.get(key):
            self._readmit(gf, site_name)
        return owed

    def _count_resync(self, site_name: str, nbytes: int) -> None:
        """Count bytes resynced onto ``site_name``: run total and series."""
        self.resynced_bytes += nbytes
        if self._resync_bytes is not None:
            self._resync_bytes[site_name].record(float(nbytes))

    def _readmit(self, gf, site_name: str) -> None:
        """A replica is current again: lift its fence, relist the copy."""
        rep = self.replicator
        gf.site_versions[site_name] = gf.version
        rep._note_copy_complete(gf, site_name)
        rep.leases.note_rejoined(gf.path, site_name)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        return {
            "sweeps": self.sweeps,
            "resynced_bytes": self.resynced_bytes,
            "conflicts": self.conflicts,
            "orphans_recovered": self.orphans_recovered,
        }

    def health(self) -> ComponentHealth:
        rep = self.replicator
        divergent = rep.total_divergence()
        if divergent or rep.orphans:
            state = HealthState.DEGRADED
            detail = (f"{divergent}B divergent, "
                      f"{len(rep.orphans)} open fork(s)")
        else:
            state = HealthState.UP
            detail = (f"{self.conflicts} conflict(s)" if self.conflicts
                      else "")
        return ComponentHealth("geo.reconcile", state, metrics={
            "divergent_bytes": float(divergent),
            "open_forks": float(len(rep.orphans)),
            "conflicts": float(self.conflicts),
            "sweeps": float(self.sweeps),
        }, detail=detail)

    def register_health(self, mgmt: "ManagementPlane") -> None:
        mgmt.register("geo.reconcile", self.health)
