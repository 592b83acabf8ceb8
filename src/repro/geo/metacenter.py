"""The metadata center: multiple sites managed as one system (Figure 3, §7.3).

"Our proposed architecture could be deployed in multiple geographically
separated locations.  The resulting 'metadata center' would provide users
with a single data image" — and "from an IT perspective, the system would
be managed as one large system."

:class:`MetadataCenter` composes a full :class:`~repro.core.NetStorageSystem`
per site (blade cluster, coherent cache, declustered farm, PFS) under the
geo layers: per-file replication policy, access-driven migration, and
disaster recovery.  Site-local I/O runs through each site's complete data
path (the Site objects delegate their storage backend to the local
system's raw I/O), so WAN effects stack on honest local costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..core.config import SystemConfig
from ..core.system import NetStorageSystem
from ..plan.spec import SiteSpec
from ..fs.metadata import Inode
from ..fs.policies import DEFAULT_POLICY, FilePolicy
from ..obs import enable
from ..sim.events import Event
from ..sim.faults import is_fault
from ..sim.units import gbps
from .dr import DisasterRecoveryCoordinator, RecoveryReport
from .migration import DistributedAccessManager
from .replication import GeoReplicator
from .selection import CostModelSelector, make_selector
from .site import Site
from .wan import WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class MetadataCenter:
    """One data image spanning several NetStorage deployments.

    ``site_specs`` is a sequence of :class:`~repro.plan.spec.SiteSpec`
    objects — name, plane position, and optional per-site overrides of
    the shared ``config`` (a site can run more blades or a different
    replication factor than its peers).  Sites sharing a simulator share
    one observability bundle, attached before the WAN and the first site
    are built when any site config asks for observability.
    """

    def __init__(self, sim: "Simulator",
                 site_specs: Sequence[SiteSpec],
                 config: SystemConfig | None = None,
                 block_size_wan: int = 1024 * 1024,
                 selection: str = "cost",
                 selection_seed: int = 0) -> None:
        if not (isinstance(site_specs, Sequence)
                and all(isinstance(s, SiteSpec) for s in site_specs)):
            raise TypeError("site_specs must be a sequence of SiteSpec "
                            f"objects, got {site_specs!r}")
        specs = list(site_specs)
        if len(specs) < 2:
            raise ValueError("a metadata center needs at least two sites")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        self.sim = sim
        base = config or SystemConfig()
        configs = [spec.system_config(base) for spec in specs]
        if sim.obs is None and any(c.observability for c in configs):
            enable(sim)
        self.network = WanNetwork(sim)
        self.systems: dict[str, NetStorageSystem] = {}
        for spec, cfg in zip(specs, configs):
            system = NetStorageSystem(sim, cfg)
            system.start()
            site = Site(sim, spec.name, spec.position,
                        backend_read=system.raw_read,
                        backend_write=system.raw_write)
            self.network.add_site(site)
            self.systems[spec.name] = system
        self.replicator = GeoReplicator(sim, self.network)
        self.selection = selection
        if selection == "cost":
            # The cost model's site-load signal includes degraded capacity
            # straight from each site's management plane (blades down).
            selector = CostModelSelector(
                self.network, site_load_fn=self._blades_down)
        else:
            selector = make_selector(selection, self.network,
                                     seed=selection_seed)
        self.access = DistributedAccessManager(sim, self.network,
                                               block_size=block_size_wan,
                                               selection=selector)
        # Keep the residency catalog current: replicas that finish *after*
        # a file's first access immediately become read candidates.
        self.access.catalog.bind_replicator(self.replicator)
        self.dr = DisasterRecoveryCoordinator(sim, self.network,
                                              self.replicator)
        #: Post-heal anti-entropy; attach_reconciler() turns it on.
        self.reconciler = None
        self._homes: dict[str, str] = {}
        # Integrity-enabled sites gain the WAN tier of the repair chain:
        # a chunk no local tier can fix is refetched from a peer site.
        for name, system in self.systems.items():
            if system.integrity is not None:
                system.set_geo_repair(self._make_geo_repair(name))
                if self.replicator.integrity is None:
                    # WAN payload verification accounts on the first
                    # integrity-enabled site's ledger.
                    self.replicator.integrity = system.integrity

    def _blades_down(self, site_name: str) -> float:
        """Degraded capacity at a site, for the selector's load signal."""
        system = self.systems.get(site_name)
        return float(system.blades_down) if system is not None else 0.0

    def _make_geo_repair(self, site_name: str):
        """The geo tier's fetch hook for one site: pull ``nbytes`` from
        the nearest live peer site over the WAN (repair traffic rides the
        same encrypted conduits as replication)."""
        def fetch(req, nbytes: int) -> Event:
            origin = self.network.sites[site_name]
            peers = self.network.neighbors_by_distance(origin, 0.0)
            if not peers:
                from ..sim.faults import SimulatedFault
                failed = Event(self.sim)
                failed.fail(SimulatedFault(
                    f"no live peer site to refetch for {site_name}"))
                return failed

            def run():
                # An injected outage (route cut, peer died) fails the fetch.
                yield self.network.transfer(peers[0], origin, nbytes)
                return nbytes

            return self.sim.process(run(), name=f"geo.repair.{site_name}")

        return fetch

    # -- topology -------------------------------------------------------------------

    def connect(self, a: str, b: str, bandwidth: float = gbps(2.5),
                encrypted: bool = True, **kwargs) -> None:
        """Join two sites; inter-site conduits are encrypted by default
        (§5.1), using the hardware engines so the rate stays at wire speed."""
        self.network.connect(self.network.sites[a], self.network.sites[b],
                             bandwidth=bandwidth, encrypted=encrypted,
                             **kwargs)

    # -- the single-image file API ---------------------------------------------------

    def create(self, path: str, home: str,
               policy: FilePolicy = DEFAULT_POLICY, owner: str = "") -> Inode:
        """Create a file homed at ``home``; policy governs geo behaviour.

        Namespace metadata is global — every site's catalog learns the
        file immediately (that is what makes the deployment "a single
        data image"); only the data blocks live at the home/replica sites.
        """
        inode: Inode | None = None
        for name, system in self.systems.items():
            created = system.create(path, policy, owner)
            if name == home:
                inode = created
        assert inode is not None
        self.replicator.register(path, inode.policy,
                                 self.network.sites[home])
        self._homes[path] = home
        return inode

    def write(self, path: str, offset: int, nbytes: int,
              at: str | None = None, epoch: int | None = None) -> Event:
        """Write from any site; data lands at the file's (current) home.

        The ack follows the file's replication policy: local-site cache
        safety for NONE/ASYNC, every replica site for SYNC.

        ``epoch`` is the home epoch the writer captured
        (``replicator.leases.epoch(path)``); after a DR promotion a stale epoch fails
        the write with ``EpochFencingError`` before any metadata or data
        mutation — split-brain writes are rejected, never applied.
        """
        return self.sim.process(self._write(path, offset, nbytes, at, epoch),
                                name="meta.write")

    def _log_failure(self, kind: str, path: str, exc: BaseException) -> None:
        """Failures crossing this boundary go through the event log with a
        severity matching their nature: injected faults are operational
        WARNINGs, anything else is a model bug and logs as ERROR."""
        obs = self.sim.obs
        if obs is None:
            return
        log = obs.log.warning if is_fault(exc) else obs.log.error
        log("geo.metacenter", kind, path=path, error=type(exc).__name__)

    def _write(self, path: str, offset: int, nbytes: int,
               at: str | None, epoch: int | None = None):
        gf = self.replicator.files.get(path)
        if gf is None:
            raise KeyError(f"unknown file {path!r}")
        home = gf.home
        writer = at or home
        try:
            # Fence FIRST: a stale-epoch writer must not forward bytes or
            # touch the home PFS metadata before being rejected.
            self.replicator.leases.check_write(path, epoch)
            if writer != home:
                # Forward the bytes to the home site first.
                yield self.network.transfer(self.network.sites[writer],
                                            self.network.sites[home], nbytes)
            # Functional metadata lives in the home PFS; geo replication
            # carries the timing (local store + WAN per policy).
            self.systems[home].pfs.write(path, offset, nbytes,
                                         now=self.sim.now)
            yield self.replicator.write(path, nbytes, epoch=epoch)
        except Exception as exc:
            # Logged with its severity on the way out, never swallowed.
            self._log_failure("write_failed", path, exc)
            raise
        return nbytes

    def read(self, path: str, offset: int, nbytes: int, at: str) -> Event:
        """Read at any site: local copies serve locally, else the block
        migrates in (with prefetch / auto-replication, §7.1)."""
        return self.sim.process(self._read(path, offset, nbytes, at),
                                name="meta.read")

    def _read(self, path: str, offset: int, nbytes: int, at: str):
        gf = self.replicator.files.get(path)
        if gf is None:
            raise KeyError(f"unknown file {path!r}")
        if path not in self.access.files:
            # Register the file's *true* size (not inflated by an
            # overshooting first read — that used to pin a too-large
            # block_count forever, defeating ``fully_resident_at`` and
            # re-triggering background replication on every access).
            size = max(self.systems[gf.home].pfs.open(path).size, 1)
            self.access.register(path, size, self.network.sites[gf.home])
            # Replica sites already hold full copies; later completions
            # arrive through the catalog's on_copy_complete subscription.
            fr = self.access.files[path]
            for copy_site in gf.copies:
                fr.resident[copy_site] = set(range(fr.block_count))
        fr = self.access.files[path]
        block_size = self.access.block_size
        first = offset // block_size
        last = (offset + max(nbytes, 1) - 1) // block_size
        try:
            for block in range(first, min(last + 1, fr.block_count)):
                yield self.access.read(path, block, self.network.sites[at])
        except Exception as exc:
            self._log_failure("read_failed", path, exc)
            raise
        return nbytes

    # -- operations ---------------------------------------------------------------------

    def fail_site(self, name: str) -> Event:
        """Complete site disaster; event value is the RecoveryReport."""
        return self.dr.fail_site(self.network.sites[name])

    def attach_faults(self, plan=None, strict: bool = True):
        """Bind a :class:`~repro.faults.injector.FaultInjector` across
        every site (DR-coordinated loss), WAN link, and per-site system;
        arm ``plan`` if given."""
        from ..faults.injector import FaultInjector
        injector = FaultInjector(self.sim).bind_metacenter(self)
        if plan is not None:
            injector.arm(plan, strict=strict)
        return injector

    def attach_reconciler(self, settle_delay: float = 0.5):
        """Start the post-heal anti-entropy daemon; idempotent."""
        if self.reconciler is None:
            from .reconcile import ReconcileDaemon
            self.reconciler = ReconcileDaemon(
                self.sim, self.network, self.replicator,
                settle_delay=settle_delay)
            self.reconciler.start()
        return self.reconciler

    def report(self) -> dict[str, float]:
        """One management view over the whole distributed system (§7.3)."""
        out: dict[str, float] = {}
        for name, system in self.systems.items():
            for key, value in system.report().items():
                out[f"{name}.{key}"] = value
        out["files"] = float(len(self.replicator.files))
        out["wan.replication_bytes"] = self.replicator.replication_bytes
        if self.selection != "static":
            out["select.policy_cost"] = float(self.selection == "cost")
            out["select.rerouted"] = float(self.access.rerouted)
            history = getattr(self.access.selector, "history", None)
            if history is not None:
                out["select.route_samples"] = float(history.samples)
        if self.reconciler is not None:
            summary = self.reconciler.summary()
            # Keys appear only when reconciliation actually ran: an idle
            # daemon leaves the report (and scenario fingerprints)
            # byte-identical to a run without one.
            if summary["sweeps"]:
                out["reconcile.sweeps"] = summary["sweeps"]
                out["reconcile.resynced_bytes"] = summary["resynced_bytes"]
                out["reconcile.conflicts"] = summary["conflicts"]
        return out


__all__ = ["MetadataCenter", "RecoveryReport"]
