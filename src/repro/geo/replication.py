"""File-granular geographic replication (§6.2, §7.2).

"Key files would be synchronously replicated while less important files
would be asynchronously replicated.  Unimportant files may not be remotely
replicated at all."  And geographically aware chains: "a file could be
synchronously replicated to a center close by, and then, asynchronously
replicated to further distances."

The replicator keeps, per file, the set of sites holding a current copy
and per-target async backlogs; a site disaster converts un-drained backlog
into a measured RPO (data-loss window) instead of silent corruption.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING

from ..faults.retry import RetryPolicy
from ..fs.policies import FilePolicy, ReplicationMode
from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.timeseries import bind_by_site
from ..obs.tracer import NULL_SPAN
from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from .lease import LeaseAuthority
from .site import Site
from .wan import WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ManagementPlane
    from ..sim.engine import Simulator


class GeoFile:
    """Replication state of one file."""

    __slots__ = ("path", "policy", "copies", "size", "home", "version",
                 "site_versions", "last_write_at")

    def __init__(self, path: str, policy: FilePolicy, home: str) -> None:
        self.path = path
        self.policy = policy
        self.home = home
        self.copies: set[str] = {home}
        self.size = 0
        #: Monotonic write counter of the authoritative lineage; bumps on
        #: every acked home write.  Per-site versions record the last
        #: version each replica is known current *through*, which is what
        #: the reconciler compares after a partition heals.
        self.version = 0
        self.site_versions: dict[str, int] = {home: 0}
        self.last_write_at = float("-inf")


class Orphan:
    """Bytes stranded on a fenced ex-home when DR rehomed the file.

    The old home acked writes the new lineage never received; after the
    site returns, the reconciler settles the fork deterministically
    (sim-time last-writer-wins against the surviving lineage).
    """

    __slots__ = ("nbytes", "last_write_at", "version", "size_at_fork")

    def __init__(self, nbytes: int, last_write_at: float,
                 version: int, size_at_fork: int) -> None:
        self.nbytes = nbytes
        self.last_write_at = last_write_at
        self.version = version
        self.size_at_fork = size_at_fork


class GeoReplicator:
    """Drives per-write replication according to each file's policy."""

    def __init__(self, sim: "Simulator", network: WanNetwork,
                 integrity=None, verify_payloads: bool = True) -> None:
        self.sim = sim
        self.network = network
        #: Destination-side payload verification: with an IntegrityManager
        #: attached, a WAN hop damaged in flight is caught before the
        #: remote store_write acks (one resend makes it whole); with
        #: ``verify_payloads`` off the corrupt bytes land silently.
        self.integrity = integrity
        self.verify_payloads = verify_payloads
        self._corrupt_pending = 0
        #: Payload hops resent after a destination digest miss.
        self.resends = 0
        #: Site outages observed (edge-triggered, see _note_site_down).
        self.down_transitions = 0
        #: Bytes landed on remote sites by sync hops and the async pumps.
        self.replication_bytes = 0.0
        self._wan_bytes = bind_by_site(sim, "geo.wan_bytes")
        self._backlog = bind_by_site(sim, "geo.backlog_bytes", level=True)
        self._divergence = bind_by_site(sim, "geo.divergence", level=True)
        self.files: dict[str, GeoFile] = {}
        #: bytes acked at the source but not yet at (path, target_site)
        self.async_backlog: dict[tuple[str, str], int] = defaultdict(int)
        #: Called as ``fn(path, site_name)`` whenever a site *newly*
        #: gains a complete, current copy (sync replication ack or an
        #: async backlog fully drained).  The metacenter's replica
        #: catalog subscribes here so holder selection sees replicas
        #: completed after a file's first access (the stale-residency
        #: fix); notification is synchronous bookkeeping, no events.
        self.on_copy_complete: list = []
        self._pump_running: set[str] = set()
        #: Backlog per target above which the event log gets a WARNING
        #: (replication lag = the RPO exposure the operator must watch).
        self.backlog_warn_bytes = 64 * 1024 * 1024
        self._lag_alerted: set[str] = set()
        #: Backoff schedule for a stalled pump (WAN cut / site down), in
        #: the shared RetryPolicy shape.
        self.pump_retry = RetryPolicy(attempts=10, base_delay=0.005,
                                      multiplier=2.0, max_delay=2.0)
        #: Sites currently observed down, edge-triggered: a site raising
        #: from both its link and its store in the same tick is counted as
        #: ONE outage transition, not two.
        self._down_sites: set[str] = set()
        #: Write-authority epochs; DR promotions bump these so stale
        #: writers fence instead of silently applying (split-brain).
        self.leases = LeaseAuthority(sim)
        #: (path, site) -> bytes a replica is known to be *missing* that
        #: no async pump will deliver (sync targets lost mid-replication,
        #: replicas dropped from the target set while writes continued).
        #: Async backlog is deliberately NOT mirrored here — the pump owns
        #: draining it; the reconciler owns only this map plus orphans.
        self.divergence: dict[tuple[str, str], int] = {}
        #: (path, ex_home) -> :class:`Orphan` forks created by failover.
        self.orphans: dict[tuple[str, str], Orphan] = {}
        # Outage accounting rides the sites' own state transitions, not
        # I/O observation: an outage that begins and ends with no I/O in
        # between still counts, and repair clears FAILED health at repair
        # time rather than at the next successful transfer.
        network.state_listeners.append(self._on_network_state)

    # -- registration ----------------------------------------------------------------

    def register(self, path: str, policy: FilePolicy, home: Site) -> GeoFile:
        """Track a file's replication under its policy, homed at ``home``."""
        if path in self.files:
            raise ValueError(f"file {path!r} already registered")
        gf = GeoFile(path, policy, home.name)
        self.files[path] = gf
        self.leases.grant(path, home.name)
        return gf

    def set_policy(self, path: str, policy: FilePolicy) -> None:
        """'The file behavior can easily be changed at any time.'"""
        self.files[path].policy = policy

    def replica_targets(self, gf: GeoFile, origin: Site) -> list[Site]:
        """Where copies should go: explicit sites first, else nearest
        live sites satisfying the minimum distance."""
        policy = gf.policy
        if policy.preferred_sites:
            targets = [self.network.sites[name]
                       for name in policy.preferred_sites
                       if name in self.network.sites
                       and not self.network.sites[name].failed]
            return targets[:policy.replication_sites or len(targets)]
        if policy.replication_sites <= 0:
            return []
        return self.network.neighbors_by_distance(
            origin, policy.min_distance_km)[:policy.replication_sites]

    def _note_copy_complete(self, gf: GeoFile, site_name: str) -> None:
        """Record a current copy at a site and notify subscribers.

        Fires the hooks even when the site was already listed (an async
        target catching up *again* after more writes): receivers are
        idempotent, and a replica evicted elsewhere may need re-marking.
        """
        gf.copies.add(site_name)
        for fn in self.on_copy_complete:
            fn(gf.path, site_name)

    # -- outage accounting (edge-triggered) ---------------------------------------------

    def _note_site_down(self, site_name: str) -> None:
        """Count one down transition per outage, however many call sites
        observe it (link failure and site failure often raise in the same
        tick — that is still one outage)."""
        if site_name in self._down_sites:
            return
        self._down_sites.add(site_name)
        self.down_transitions += 1
        if self.sim.obs is not None:
            self.sim.obs.log.error("geo.replication", "site_down",
                                   site=site_name)

    def _note_site_up(self, site_name: str) -> None:
        if site_name in self._down_sites:
            self._down_sites.discard(site_name)
            if self.sim.obs is not None:
                self.sim.obs.log.info("geo.replication", "site_recovered",
                                      site=site_name)

    def _on_network_state(self, obj, failed: bool) -> None:
        """Site up/down transitions from the network, exactly once each.

        Only *site* state defines a site outage — a flapped WAN link cuts
        routes, which the pump observes as stalls, but the site itself is
        healthy.  I/O-observation call sites below still mark sites down
        for transient faults the transition hooks never see.
        """
        if not isinstance(obj, Site):
            return
        if failed:
            self._note_site_down(obj.name)
        else:
            self._note_site_up(obj.name)

    # -- divergence tracking -------------------------------------------------------------

    def _note_divergence(self, gf: GeoFile, site_name: str,
                         nbytes: int) -> None:
        """A replica at ``site_name`` is now known to lack ``nbytes``
        that nothing in the normal write path will deliver."""
        key = (gf.path, site_name)
        self.divergence[key] = self.divergence.get(key, 0) + nbytes
        if self._divergence is not None:
            self._divergence[site_name].record(
                float(self.divergent_bytes_at(site_name)))

    def clear_divergence(self, path: str, site_name: str,
                         nbytes: int | None = None) -> None:
        """Retire (part of) a divergence entry after a resync shipment."""
        key = (path, site_name)
        owed = self.divergence.get(key)
        if owed is None:
            return
        remaining = 0 if nbytes is None else max(0, owed - nbytes)
        if remaining:
            self.divergence[key] = remaining
        else:
            del self.divergence[key]
        if self._divergence is not None:
            self._divergence[site_name].record(
                float(self.divergent_bytes_at(site_name)))

    def divergent_bytes_at(self, site_name: str) -> int:
        """Known-missing bytes across all files for one site."""
        return sum(b for (_p, s), b in self.divergence.items()
                   if s == site_name)

    def total_divergence(self) -> int:
        return sum(self.divergence.values())

    # -- failover bookkeeping ------------------------------------------------------------

    def note_failover(self, path: str, old_home: str, new_home: str) -> None:
        """DR rehomed ``path``: fence the old holder, strand its fork.

        The new home's un-drained async backlog entry is exactly the acked
        bytes the surviving lineage is missing — that becomes the orphan
        the reconciler settles when (if) the old site returns.  All other
        backlog entries from the dead home are unpumpable and dropped
        (they are the measured RPO, already reported by DR).
        """
        gf = self.files[path]
        self.leases.promote(path, new_home)
        orphan_bytes = 0
        for key in [k for k in self.async_backlog if k[0] == path]:
            owed = self.async_backlog.pop(key)
            if key[1] == new_home:
                orphan_bytes += owed
        # Always record the fork point — even with zero stranded bytes the
        # ex-home must be caught up on everything written after it left
        # before it can serve reads again.
        self.orphans[(path, old_home)] = Orphan(
            orphan_bytes, gf.last_write_at, gf.version, gf.size)
        # The ex-home's copy is a fenced fork, not a current replica:
        # selection must not read from it until reconciliation readmits it.
        gf.copies.discard(old_home)
        gf.site_versions.pop(old_home, None)

    # -- in-flight verification ---------------------------------------------------------

    def corrupt_next(self, count: int = 1) -> None:
        """Arm in-flight damage on the next ``count`` WAN payload hops
        (the WIRE_CORRUPT fault hook)."""
        if self.integrity is None:
            raise RuntimeError("attach an IntegrityManager before arming "
                               "wire faults")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._corrupt_pending += count

    def _wire_check(self, origin: Site, target: Site, nbytes: int):
        """Destination-side payload verification for one WAN hop; yields
        the resend transfer when damage is caught, nothing otherwise."""
        if self.integrity is None or self._corrupt_pending <= 0:
            return
        self._corrupt_pending -= 1
        if self.verify_payloads:
            self.integrity.wire_event("wire_corrupt", detected=True,
                                      repaired=True)
            self.resends += 1
            if self.sim.obs is not None:
                self.sim.obs.log.warning("geo.replication",
                                         "payload_digest_miss",
                                         target=target.name, nbytes=nbytes)
            yield self.network.transfer(origin, target, nbytes)
        else:
            self.integrity.wire_event("wire_corrupt", detected=False)

    # -- the write path -----------------------------------------------------------------

    def write(self, path: str, nbytes: int,
              epoch: int | None = None) -> Event:
        """A host write at the file's home site; event fires at *ack* time.

        SYNC policies ack only after every target site has the bytes;
        ASYNC policies ack after the local write and drain in background;
        NONE never leaves the home site.

        ``epoch`` is the home epoch the writer captured when it opened the
        file (``leases.epoch(path)``).  A stale epoch — the writer's home
        was fenced off by a DR promotion while it was partitioned — fails
        the write with :class:`EpochFencingError` before any byte lands.
        ``None`` (the legacy shape) always passes the fence.
        """
        return self.sim.process(self._write(path, nbytes, epoch),
                                name="geo.write")

    def _write(self, path: str, nbytes: int, epoch: int | None = None):
        gf = self.files[path]
        origin = self.network.sites[gf.home]
        obs = self.sim.obs
        mode = gf.policy.replication_mode
        span = (obs.tracer.span("geo.write", path=path, nbytes=nbytes,
                                mode=mode.value)
                if obs is not None else NULL_SPAN)
        with span:
            # Fence BEFORE any storage I/O: a stale-epoch write must be
            # rejected and surfaced, never partially applied.
            self.leases.check_write(path, epoch)
            try:
                with span.child("site.store", site=origin.name):
                    yield origin.store_write(nbytes)
            except FAULT_EXCEPTIONS as exc:
                # Injected outage (site down, blades gone).
                self._note_site_down(origin.name)
                if obs is not None:
                    obs.log.error("geo.replication", "home_write_failed",
                                  path=path, site=origin.name,
                                  error=type(exc).__name__)
                raise
            self._note_site_up(origin.name)
            gf.size += nbytes
            gf.version += 1
            gf.last_write_at = self.sim.now
            gf.site_versions[origin.name] = gf.version
            targets = self.replica_targets(gf, origin)
            # Replicas holding a copy but no longer in the target set
            # (site down, policy narrowed) fall behind with nothing in the
            # normal path to catch them up: that gap is *divergence*.
            target_names = {t.name for t in targets}
            for stale in sorted(gf.copies - {origin.name} - target_names):
                self._note_divergence(gf, stale, nbytes)
            if mode is ReplicationMode.SYNC and targets:
                version = gf.version
                transfers = []
                for target in targets:
                    transfers.append(self._replicate_to(gf, origin, target,
                                                        nbytes, parent=span))
                try:
                    with span.child("geo.sync_replicate",
                                    targets=len(targets)):
                        yield self.sim.all_of(transfers)
                except FAULT_EXCEPTIONS as exc:
                    # A sync target died mid-replication: the write
                    # fails visibly.  A transfer still on the WAN is not
                    # current yet; it settles when it finishes.
                    for target, ev in zip(targets, transfers):
                        if target.failed:
                            self._note_site_down(target.name)
                        settle = partial(self._settle_sync_transfer, gf,
                                         target.name, version, nbytes)
                        if ev.triggered:
                            settle(ev)
                        else:
                            ev.add_callback(settle)
                    if obs is not None:
                        obs.log.error("geo.replication",
                                      "sync_replicate_failed", path=path,
                                      error=type(exc).__name__)
                    raise
                for target, ev in zip(targets, transfers):
                    self._settle_sync_transfer(gf, target.name, version,
                                               nbytes, ev)
                    self._note_copy_complete(gf, target.name)
            elif mode is ReplicationMode.ASYNC and targets:
                for target in targets:
                    self.async_backlog[(path, target.name)] += nbytes
                    self._check_lag(target.name)
                    self._ensure_pump(target.name)
            return nbytes

    def _settle_sync_transfer(self, gf: GeoFile, site_name: str,
                              version: int, nbytes: int, ev: Event) -> None:
        """Account one finished transfer of a sync write: a landed one
        makes the target current through this write's ``version``, not
        a later write's, unless the target is already newer."""
        if ev.ok:
            if gf.site_versions.get(site_name, -1) < version:
                gf.site_versions[site_name] = version
        else:
            # The barrier failed the write, so the caller will not retry
            # these bytes toward this target: the replica is divergent
            # until the reconciler re-ships them.
            self._note_divergence(gf, site_name, nbytes)

    def _replicate_to(self, gf: GeoFile, origin: Site, target: Site,
                      nbytes: int, parent=None) -> Event:
        def run():
            obs = self.sim.obs
            span = (obs.tracer.span("geo.wan_hop", parent=parent,
                                    target=target.name, nbytes=nbytes)
                    if obs is not None else NULL_SPAN)
            with span:
                yield self.network.transfer(origin, target, nbytes)
                yield from self._wire_check(origin, target, nbytes)
                yield target.store_write(nbytes)
                # The remote site's acknowledgment rides back one-way.
                yield self.sim.timeout(self.network.rtt(origin, target) / 2.0)
            self._count_wan_bytes(target.name, nbytes)

        return self.sim.process(run(), name=f"geo.repl.{target.name}")

    def _count_wan_bytes(self, site_name: str, nbytes: int) -> None:
        """Count bytes landed on ``site_name``: run total and series."""
        self.replication_bytes += nbytes
        if self._wan_bytes is not None:
            self._wan_bytes[site_name].record(float(nbytes))

    def backlog_to(self, target_name: str) -> int:
        """Acked-but-undrained bytes headed to one target site."""
        return sum(b for (_p, t), b in self.async_backlog.items()
                   if t == target_name)

    def _check_lag(self, target_name: str) -> None:
        """Edge-triggered replication-lag warning with hysteresis."""
        obs = self.sim.obs
        if obs is None:
            return
        backlog = self.backlog_to(target_name)
        if self._backlog is not None:
            self._backlog[target_name].record(float(backlog))
        if backlog > self.backlog_warn_bytes and \
                target_name not in self._lag_alerted:
            self._lag_alerted.add(target_name)
            obs.log.warning("geo.replication", "replication_lag",
                            target=target_name, backlog_bytes=backlog)
        elif backlog < self.backlog_warn_bytes // 2 and \
                target_name in self._lag_alerted:
            self._lag_alerted.discard(target_name)
            obs.log.info("geo.replication", "replication_lag_cleared",
                         target=target_name, backlog_bytes=backlog)

    # -- async drain -----------------------------------------------------------------------

    def _ensure_pump(self, target_name: str) -> None:
        if target_name in self._pump_running:
            return
        self._pump_running.add(target_name)
        self.sim.process(self._pump(target_name), name=f"geo.pump.{target_name}")

    def _pump(self, target_name: str):
        """Background drain of all async backlog headed to one site.

        Runs while the target has backlog and returns as soon as it has
        none; the next async write to the target starts it again
        (:meth:`_ensure_pump`).  Stalls (WAN cut, site down) back off
        along the shared :class:`RetryPolicy` schedule rather than
        hammering a dead route at a fixed cadence; the first success
        resets the backoff.
        """
        target = self.network.sites[target_name]
        policy = self.pump_retry
        stalls = 0
        while True:
            item = next(((p, t) for (p, t), b in self.async_backlog.items()
                         if t == target_name and b > 0), None)
            if item is None:
                break
            path, _ = item
            gf = self.files[path]
            origin = self.network.sites[gf.home]
            chunk = min(self.async_backlog[item], 8 * 1024 * 1024)
            if origin.failed or target.failed:
                self._note_site_down(origin.name if origin.failed
                                     else target.name)
                stalls = min(stalls + 1, policy.attempts)
                yield self.sim.timeout(policy.backoff(stalls))
                continue
            try:
                yield self.network.transfer(origin, target, chunk)
                yield from self._wire_check(origin, target, chunk)
                yield target.store_write(chunk)
            except FAULT_EXCEPTIONS as exc:
                if target.failed:
                    self._note_site_down(target.name)
                stalls = min(stalls + 1, policy.attempts)
                delay = policy.backoff(stalls)
                if self.sim.obs is not None:
                    self.sim.obs.log.warning("geo.replication", "pump_stalled",
                                             target=target_name,
                                             error=type(exc).__name__,
                                             backoff=round(delay, 6))
                yield self.sim.timeout(delay)
                continue
            stalls = 0
            self._note_site_up(origin.name)
            self._note_site_up(target.name)
            if item not in self.async_backlog:
                # A failover consumed this entry while the chunk was in
                # flight: those bytes are accounted by the orphan fork
                # now, and decrementing the (gone) defaultdict entry here
                # would resurrect it with a negative balance.
                continue
            self.async_backlog[item] -= chunk
            self._count_wan_bytes(target_name, chunk)
            self._check_lag(target_name)
            if self.async_backlog[item] <= 0:
                # Fully drained: every acked byte for this file has
                # landed, so the replica is current through the lineage
                # version as of *now*.
                gf.site_versions[target_name] = gf.version
                self._note_copy_complete(gf, target_name)
        self._pump_running.discard(target_name)

    def total_backlog_from(self, site_name: str) -> int:
        """Un-replicated acked bytes whose only copy is at ``site_name``."""
        return sum(b for (path, _t), b in self.async_backlog.items()
                   if self.files[path].home == site_name)

    # -- failure accounting -------------------------------------------------------------------

    def site_disaster_report(self, site_name: str) -> dict[str, int]:
        """What a sudden loss of ``site_name`` would cost right now.

        * ``lost_files`` — files whose only copy was there (mode NONE);
        * ``rpo_bytes`` — acked-but-undrained async backlog from there;
        * ``safe_files`` — files with a surviving replica.
        """
        lost = sum(1 for gf in self.files.values()
                   if gf.copies == {site_name})
        safe = sum(1 for gf in self.files.values()
                   if site_name in gf.copies and len(gf.copies) > 1)
        return {
            "lost_files": lost,
            "safe_files": safe,
            "rpo_bytes": self.total_backlog_from(site_name),
        }

    # -- health ---------------------------------------------------------------------

    def health(self) -> ComponentHealth:
        """Replication lag as management-plane health: DEGRADED while any
        target's async backlog exceeds the warning watermark."""
        backlog = sum(self.async_backlog.values())
        lagging = sorted(self._lag_alerted)
        if self._down_sites:
            state = HealthState.FAILED
            detail = f"sites down: {','.join(sorted(self._down_sites))}"
        elif lagging:
            state = HealthState.DEGRADED
            detail = f"lagging: {','.join(lagging)}"
        elif self.divergence or self.orphans:
            state = HealthState.DEGRADED
            detail = (f"divergent: {self.total_divergence()}B across "
                      f"{len(self.divergence)} replica(s), "
                      f"{len(self.orphans)} orphan fork(s)")
        else:
            state = HealthState.UP
            detail = ""
        return ComponentHealth("geo.replication", state, metrics={
            "backlog_bytes": float(backlog),
            "files": float(len(self.files)),
            "pumps_running": float(len(self._pump_running)),
            "down_sites": float(len(self._down_sites)),
            "divergent_bytes": float(self.total_divergence()),
            "orphan_forks": float(len(self.orphans)),
        }, detail=detail)

    def register_health(self, mgmt: "ManagementPlane") -> None:
        mgmt.register("geo.replication", self.health)
