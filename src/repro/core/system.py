"""NetStorageSystem: the assembled architecture — the paper's contribution.

One object wires every subsystem into the data path the paper describes:

    host I/O → load balancer → controller blade → coherent pooled cache
             → (miss/destage) declustered disk farm

with the integrated parallel file system providing per-file policies, the
security layer gating access, membership feeding failures into the cache
and rebuild machinery, and optional geo attachment for multi-site
deployments (Figure 3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..cache.pool import CacheCluster
from ..cluster.cluster import ControllerCluster
from ..faults.state import RecoveryTracker
from ..fs.pfs import ParallelFileSystem
from ..integrity import IntegrityManager, RepairChain, ScrubDaemon
from ..obs import Observability, bind, enable
from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.tracer import NULL_SPAN
from ..fs.policies import DEFAULT_POLICY, FilePolicy
from ..hardware.blade import BladeState, ControllerBlade
from ..hardware.disk import make_disk_farm
from ..raid.decluster import DeclusteredPool
from ..raid.rebuild import rebuild_job
from ..security.lun_masking import LunMaskingTable
from ..security.zones import SecureInstallation, hardened_installation, naive_installation
from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.rng import RngStreams, stable_hash
from ..virt.allocator import Allocator, StoragePool
from .config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.regions import RegionJob


class NetStorageSystem:
    """A single-site NetStorage deployment with a POSIX-ish client API."""

    def __init__(self, sim: "Simulator", config: SystemConfig | None = None) -> None:
        self.sim = sim
        self.config = config or SystemConfig()
        cfg = self.config
        self.rng = RngStreams(cfg.seed)

        # Attach the obs bundle (or join the one sites of a simulator
        # share) first: every component binds its series when built.
        if cfg.observability and sim.obs is None:
            enable(sim)
        self.obs: Observability | None = sim.obs if cfg.observability else None
        # Level series: an outage recorded only at its edges reads as down
        # for its whole duration, which the availability SLO evaluates.
        self._blades_down = bind(sim, "cluster.blades_down", level=True)
        self._client_series = {op: tuple(
            bind(sim, f"client.{m}", op=op)
            for m in ("ops_ok", "ops_failed", "latency_s"))
            for op in ("read", "write")}

        # Hardware + cluster.
        self.cluster = ControllerCluster(
            sim, blade_count=cfg.blade_count,
            cache_bytes_per_blade=cfg.cache_bytes_per_blade,
            fc_ports_per_blade=cfg.fc_ports_per_blade,
            fc_rate_gb=cfg.fc_rate_gb)
        self.disks = make_disk_farm(sim, cfg.disk_count, cfg.disk_capacity,
                                    name=f"{cfg.name}.farm")
        self.pool = DeclusteredPool(sim, self.disks,
                                    data_per_stripe=cfg.data_per_stripe,
                                    chunk_size=cfg.block_size,
                                    name=f"{cfg.name}.pool")

        # Coherent pooled cache in front of the farm.
        blades = list(self.cluster.blades.values())
        self.cache = CacheCluster(
            sim, blades, self._backing_read, self._backing_write,
            block_size=cfg.block_size, replication=cfg.replication)

        # Integrated PFS: functional space accounting shares the pool size.
        self.allocator = Allocator([StoragePool(
            f"{cfg.name}.space", self.pool.capacity, cfg.block_size)])
        self.pfs = ParallelFileSystem(
            self.allocator, [b.blade_id for b in blades],
            stripe_unit=cfg.block_size, limits=cfg.policy_limits,
            name=cfg.name)

        # Security plane.
        self.masking = LunMaskingTable()
        self.installation: SecureInstallation = (
            hardened_installation() if cfg.security_hardened
            else naive_installation())

        # Cache contents die the instant a blade dies (membership's
        # detection delay governs *routing*, not physics), so observe the
        # blades directly rather than waiting for heartbeat timeout.
        for blade in blades:
            blade.observe(self._on_blade_state)
        self._failed_blades: set[int] = set()
        self._started = False
        self._raw_recent: list = []
        self._raw_cursor = 0
        self._raw_seq = 0

        if self.obs is not None:
            self._register_health()

        # End-to-end integrity: checksum verification at every layer plus
        # the scrub/repair machinery (see repro.integrity).
        self.integrity: IntegrityManager | None = None
        self.repair_chain: RepairChain | None = None
        self.scrubber: ScrubDaemon | None = None
        #: physical chunk offset -> logical cache key, recorded as backing
        #: I/O flows — lets repair tiers find the cached copy of a corrupt
        #: chunk without inverting the placement hash.
        self._offset_to_key: dict[int, object] = {}
        #: Optional WAN refetch hook installed by the metadata center; the
        #: geo tier of the repair chain is skipped until it is set.
        self._geo_repair_fetch = None
        if cfg.integrity:
            self.enable_integrity()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Start background services (write-back destager)."""
        if not self._started:
            self.cache.start_destager()
            self._started = True

    # -- observability -----------------------------------------------------------------

    def _register_health(self) -> None:
        """Register cluster, disk farm, pooled cache and blades as
        ``<config.name>.<part>``: sites sharing one plane stay distinct."""
        parts = [("cluster", self._cluster_health),
                 ("raid.pool", self._pool_health),
                 ("cache.pool", self.cache.health)]
        parts += [(b.name, b.health)
                  for _bid, b in sorted(self.cache.blades.items())]
        for part, probe in parts:
            key = f"{self.config.name}.{part}"
            self.obs.mgmt.register(key, lambda key=key, probe=probe:
                                   replace(probe(), component=key))

    def _cluster_health(self) -> ComponentHealth:
        live = len(self.cluster.membership.live())
        total = len(self.cluster.blades)
        if live == 0:
            state = HealthState.FAILED
        elif live < total:
            state = HealthState.DEGRADED
        else:
            state = HealthState.UP
        return ComponentHealth("cluster", state, metrics={
            "live_blades": float(live),
            "availability": self.cluster.service_availability(),
            "balancer_imbalance": self.cluster.balancer.imbalance(),
        }, detail=f"{live}/{total} blades live")

    def _pool_health(self) -> ComponentHealth:
        failed = len(self.pool.failed)
        state = HealthState.DEGRADED if failed else HealthState.UP
        return ComponentHealth("raid.pool", state, metrics={
            "disks": float(len(self.pool.disks)),
            "failed_disks": float(failed),
            "capacity_bytes": float(self.pool.capacity),
        }, detail=f"{failed} failed disks" if failed else "")

    # -- end-to-end integrity ----------------------------------------------------------

    def enable_integrity(self) -> IntegrityManager:
        """Attach block checksums and the repair escalation chain.

        Disks stamp on write and verify on read; the pooled cache verifies
        resident copies, peer fills, and destages; any miss escalates
        through cache replica → RAID parity → geo replica.  Scrubbing is
        separate and explicit (:meth:`start_scrub`).
        """
        if self.integrity is not None:
            return self.integrity
        cfg = self.config
        manager = IntegrityManager(self.sim, name=f"{cfg.name}.integrity")
        tracker = RecoveryTracker(self.sim, f"{cfg.name}.integrity")
        chain = RepairChain(self.sim, manager, tracker=tracker,
                            name=f"{cfg.name}.integrity.repair")
        chain.add_tier("cache_replica", self._tier_cache_replica)
        chain.add_tier("raid_parity", self._tier_raid_parity)
        chain.add_tier("geo_replica", self._tier_geo_replica)
        self.integrity = manager
        self.repair_chain = chain
        for disk in self.disks:
            disk.integrity = manager
        self.cache.integrity = manager
        self.cache.repair_chain = chain
        if self.obs is not None:
            manager.register_health(self.obs.mgmt)
            chain.register_health(self.obs.mgmt)
        return manager

    def start_scrub(self, passes: int | None = 1, rate: float | None = None,
                    idle_between_passes: float = 60.0) -> ScrubDaemon:
        """Start the background scrub daemon (explicitly: its disk reads
        perturb head positions, so byte-identical runs don't start it)."""
        if self.integrity is None:
            raise RuntimeError("enable_integrity() before scrubbing")
        if self.scrubber is None:
            self.scrubber = ScrubDaemon(
                self.sim, self.pool, self.integrity,
                chain=self.repair_chain,
                rate=self.config.scrub_rate if rate is None else rate,
                name=f"{self.config.name}.scrub")
            if self.obs is not None:
                self.scrubber.register_health(self.obs.mgmt)
        self.scrubber.start(passes=passes,
                            idle_between_passes=idle_between_passes)
        return self.scrubber

    def set_geo_repair(self, fetch) -> None:
        """Install the WAN refetch hook: ``fetch(req, nbytes) -> Event``
        completing when a clean copy arrives from a peer site.  Wired by
        the metadata center when this system joins a geo deployment."""
        self._geo_repair_fetch = fetch

    def inject_at_rest_corruption(self, disk_index: int,
                                  kind: str = "bitrot", count: int = 1,
                                  salt: int = 0) -> int:
        """Corrupt ``count`` stamped (client-written) chunks on one disk.

        Target chunks are chosen deterministically from the stamped set by
        hashing ``(disk, kind, salt)``, so campaigns are reproducible.
        Returns how many fresh corruption records were placed (0 when the
        disk holds no stamped data yet).
        """
        if self.integrity is None:
            raise RuntimeError("enable_integrity() before injecting")
        disk = self.pool.disks[disk_index]
        candidates = self.integrity.stamped_addresses(disk.name)
        if not candidates:
            return 0
        injected = 0
        start = stable_hash((disk_index, kind, salt)) % len(candidates)
        for probe in range(len(candidates)):
            if injected >= count:
                break
            addr = candidates[(start + probe) % len(candidates)]
            if self.integrity.corrupt(disk.name, addr,
                                      self.pool.chunk_size, kind):
                injected += 1
        return injected

    # Repair tiers.  Each follows the two-phase TierFn contract: return
    # None when structurally inapplicable, else a zero-arg factory whose
    # Event completes when the corrupt chunk has been rewritten.

    def _locate_corrupt_chunk(self, req) -> tuple[int, int, int] | None:
        """(stripe, member, disk_index) for a repair request, from the
        scrub-supplied placement or by re-deriving it from the cache key."""
        if req.stripe is not None and req.disk is not None:
            member = req.member
            if member is None:
                members = self.pool.stripe_members(req.stripe)
                member = members.index(req.disk) if req.disk in members \
                    else None
            if member is None:
                return None
            return req.stripe, member, req.disk
        if req.key is None:
            return None
        offset = self._key_to_offset(req.key)
        chunk = offset // self.config.block_size
        stripe, within = divmod(chunk, self.pool.data_per_stripe)
        members = self.pool.stripe_members(stripe)
        # A reconstructing read touches peer chunks, so match the actual
        # corrupt disk by name rather than assuming the data member.
        for member, disk_index in enumerate(members):
            if self.pool.disks[disk_index].name == req.domain:
                return stripe, member, disk_index
        return None

    def _tier_cache_replica(self, req):
        """Cheapest good copy: the logical block still resident (clean)
        in some blade's cache — transfer it and rewrite the chunk."""
        loc = self._locate_corrupt_chunk(req)
        if loc is None:
            return None
        stripe, member, disk_index = loc
        k = self.pool.data_per_stripe
        if member >= k or disk_index in self.pool.failed:
            return None  # parity chunks have no cached logical block
        key = self._offset_to_key.get(
            (stripe * k + member) * self.config.block_size)
        if key is None:
            return None
        entry = self.cache.directory.entry(key)
        if entry is None:
            return None
        holder = None
        for bid in sorted(entry.holders()):
            if bid in self.cache.caches and self.cache.blades[bid].is_up \
                    and self.cache.caches[bid].entry(key) is not None \
                    and not self.cache.caches[bid].is_poisoned(key):
                holder = bid
                break
        if holder is None:
            return None
        disk = self.pool.disks[disk_index]
        slot = self.pool.chunk_slot(stripe, disk_index)
        nbytes = self.pool.chunk_size

        def run():
            yield self.cache.interconnect.transfer(nbytes)
            yield disk.write(slot, nbytes, priority=10.0)

        return lambda: self.sim.process(run(), name="integrity.tier")

    def _tier_raid_parity(self, req):
        """Reconstruct the chunk from the stripe's surviving members.

        Single parity absorbs exactly one erasure: every other member
        must be alive, and their reads verify too — a second corrupt
        chunk fails the attempt and escalation continues.
        """
        loc = self._locate_corrupt_chunk(req)
        if loc is None:
            return None
        stripe, member, disk_index = loc
        if disk_index in self.pool.failed:
            return None
        members = self.pool.stripe_members(stripe)
        peers = [d for m, d in enumerate(members)
                 if m != member and d not in self.pool.failed]
        if len(peers) < len(members) - 1:
            return None  # corrupt chunk + failed member = two erasures
        disk = self.pool.disks[disk_index]
        slot = self.pool.chunk_slot(stripe, disk_index)
        nbytes = self.pool.chunk_size

        def run():
            yield self.sim.all_of([
                self.pool.disks[d].read(self.pool.chunk_slot(stripe, d),
                                        nbytes, 10.0)
                for d in peers])
            yield disk.write(slot, nbytes, priority=10.0)

        return lambda: self.sim.process(run(), name="integrity.tier")

    def _tier_geo_replica(self, req):
        """Last resort: refetch a clean copy from a peer site over the
        WAN (only wired in geo deployments; see :meth:`set_geo_repair`)."""
        fetch = self._geo_repair_fetch
        if fetch is None:
            return None
        loc = self._locate_corrupt_chunk(req)
        if loc is None:
            return None
        stripe, _member, disk_index = loc
        if disk_index in self.pool.failed:
            return None
        disk = self.pool.disks[disk_index]
        slot = self.pool.chunk_slot(stripe, disk_index)
        nbytes = self.pool.chunk_size

        def run():
            yield fetch(req, nbytes)
            yield disk.write(slot, nbytes, priority=10.0)

        return lambda: self.sim.process(run(), name="integrity.tier")

    # -- backing store hooks (cache miss / destage) -------------------------------------

    def _key_to_offset(self, key) -> int:
        blocks = self.pool.capacity // self.config.block_size
        return (stable_hash(key) % blocks) * self.config.block_size

    def _backing_read(self, key, nbytes: int) -> Event:
        # Miss fills are foreground work: a client is waiting on them.
        offset = self._key_to_offset(key)
        if self.integrity is not None:
            self._offset_to_key[offset] = key
        return self.pool.read(offset, nbytes, priority=0.0)

    def _backing_write(self, key, nbytes: int) -> Event:
        # Only the write-back destager calls this: background priority so
        # flushes never gate client reads at the disks (§2.4).
        offset = self._key_to_offset(key)
        if self.integrity is not None:
            self._offset_to_key[offset] = key
        return self.pool.write(offset, nbytes, priority=10.0)

    # -- membership plumbing ----------------------------------------------------------------

    @property
    def blades_down(self) -> int:
        """Controller blades currently failed — the management plane's
        degraded-capacity signal (feeds e.g. geo replica-selection load)."""
        return len(self._failed_blades)

    def _on_blade_state(self, blade: ControllerBlade) -> None:
        if blade.state is BladeState.FAILED:
            self._failed_blades.add(blade.blade_id)
            self.cache.on_blade_fail(blade.blade_id)
        elif blade.state is BladeState.UP \
                and blade.blade_id in self._failed_blades:
            # Repaired after a crash (a drain→up upgrade keeps its cache).
            self._failed_blades.discard(blade.blade_id)
            self.cache.on_blade_repair(blade.blade_id)
        if self._blades_down is not None:
            self._blades_down.record(float(len(self._failed_blades)))

    # -- fault injection --------------------------------------------------------------------

    def attach_faults(self, plan=None, strict: bool = True):
        """Bind a :class:`~repro.faults.injector.FaultInjector` to every
        blade, disk, and the cache of this deployment; arm ``plan`` if
        given.  Tracker health probes join the management plane when
        observability is on."""
        from ..faults.injector import FaultInjector
        injector = FaultInjector(self.sim).bind_system(self)
        if plan is not None:
            injector.arm(plan, strict=strict)
        if self.obs is not None:
            injector.register_health(self.obs.mgmt)
        return injector

    # -- client file API -------------------------------------------------------------------

    def create(self, path: str, policy: FilePolicy = DEFAULT_POLICY,
               owner: str = ""):
        """Create a file (parents auto-created); policy clamped by limits."""
        parent = path.rsplit("/", 1)[0]
        if parent:
            self.pfs.namespace.mkdirs(parent, owner=owner)
        return self.pfs.create(path, policy, owner, now=self.sim.now)

    def write(self, path: str, offset: int, nbytes: int) -> Event:
        """A client write: per-stripe-unit fan-out through the cache.

        Ack semantics follow §6.1: the event fires when every block is
        replication-safe in cache, not when it reaches disk.
        """
        return self.sim.process(self._client_io(path, offset, nbytes, "write"),
                                name="client.write")

    def read(self, path: str, offset: int, nbytes: int) -> Event:
        """A client read; event fires when every stripe unit is served."""
        return self.sim.process(self._client_io(path, offset, nbytes, "read"),
                                name="client.read")

    def _client_io(self, path: str, offset: int, nbytes: int, op: str):
        obs = self.sim.obs
        ok, failed, latency = self._client_series[op]
        t0 = self.sim.now
        span = (obs.tracer.span(f"client.{op}", path=path, nbytes=nbytes)
                if obs is not None else NULL_SPAN)
        with span:
            inode = self.pfs.open(path)
            policy = inode.policy
            if op == "write":
                self.pfs.write(path, offset, nbytes, now=self.sim.now)
            blocks = self.pfs.blocks_for_range(offset, nbytes)
            pending: list[Event] = []
            for block in blocks:
                key = self.pfs.block_key(inode, block)
                blade_id = self.pfs.blade_for_block(inode, block)
                if not self.cluster.blades[blade_id].is_up:
                    # Striping says blade X, but the cluster reroutes around
                    # failures: any controller can reach any block (§2.3).
                    blade_id = self.cluster.balancer.pick()
                self.cluster.balancer.start(blade_id)
                if op == "write":
                    ev = self.cache.write(blade_id, key,
                                          replicas=policy.write_fault_tolerance,
                                          priority=policy.cache_priority,
                                          parent=span)
                else:
                    ev = self.cache.read(blade_id, key,
                                         priority=policy.cache_priority,
                                         parent=span)
                ev.add_callback(
                    lambda _e, b=blade_id: self.cluster.balancer.finish(b))
                pending.append(ev)
            if not pending:
                return 0
            try:
                yield self.sim.all_of(pending)
            except FAULT_EXCEPTIONS:
                if failed is not None:
                    failed.incr()
                raise
            if ok is not None:
                ok.incr()
                latency.record(self.sim.now - t0)
            return nbytes

    # -- anonymous bulk I/O (geo staging / replication ingest) ---------------------------------

    def raw_write(self, nbytes: int) -> Event:
        """Absorb ``nbytes`` of incoming bulk data through the full stack.

        Used by the metadata center when replicated or migrated data lands
        at this site: fresh cache keys, so the cost is the honest
        write-absorb + destage path, not a cache-hit artifact.
        """
        return self._raw_io(nbytes, "write")

    def raw_read(self, nbytes: int) -> Event:
        """Produce ``nbytes`` of bulk data (cold read) through the stack."""
        return self._raw_io(nbytes, "read")

    def _raw_io(self, nbytes: int, op: str) -> Event:
        return self.sim.process(self._raw_run(nbytes, op),
                                name=f"system.raw_{op}")

    def _raw_run(self, nbytes: int, op: str):
        block = self.config.block_size
        pending: list[Event] = []
        remaining = nbytes
        while remaining > 0:
            take = min(block, remaining)
            remaining -= take
            if op == "read" and self._raw_recent:
                # Bulk reads serve recently staged data: warm where the
                # cache still holds it, disk otherwise.
                key = self._raw_recent[self._raw_cursor
                                       % len(self._raw_recent)]
                self._raw_cursor += 1
            else:
                # Keyed by site name, not object identity, so the key's
                # hashed disk offset is the same in every process.
                self._raw_seq += 1
                key = ("raw", self.config.name, self._raw_seq)
                if op == "write":
                    self._raw_recent.append(key)
                    if len(self._raw_recent) > 4096:
                        self._raw_recent.pop(0)
            blade_id = self.cluster.balancer.pick()
            self.cluster.balancer.start(blade_id)
            ev = (self.cache.write(blade_id, key) if op == "write"
                  else self.cache.read(blade_id, key))
            ev.add_callback(
                lambda _e, b=blade_id: self.cluster.balancer.finish(b))
            pending.append(ev)
        if not pending:
            return 0
        yield self.sim.all_of(pending)
        return nbytes

    # -- operations ---------------------------------------------------------------------------

    def scale_out(self, count: int = 1) -> list[ControllerBlade]:
        """Add blades while serving (§6.3): they join the cluster, the
        cache pool, and the PFS striping map, and start taking work."""
        added = self.cluster.scale_out(count)
        for blade in added:
            blade.observe(self._on_blade_state)
            self.cache.add_blade(blade)
            self.pfs.blade_ids.append(blade.blade_id)
        return added

    def fail_disk_and_rebuild(self, disk_index: int) -> RegionJob:
        """Kill a disk and start a cluster-distributed rebuild."""
        self.pool.mark_failed(disk_index)
        job = rebuild_job(self.pool, disk_index)
        self.cluster.rebuild_coordinator.start(job)
        if self.obs is not None:
            component = f"rebuild.disk{disk_index}"

            def probe() -> ComponentHealth:
                state = HealthState.UP if job.done else HealthState.DEGRADED
                eta = job.eta(self.sim.now)
                return ComponentHealth(component, state, metrics={
                    "progress": job.progress,
                    "eta_s": -1.0 if eta is None else eta,
                }, detail="rebuilt" if job.done else "rebuilding")

            self.obs.mgmt.register(component, probe)
        return job

    def report(self) -> dict[str, float]:
        """One flat metrics snapshot across subsystems."""
        out = dict(self.cache.metrics.snapshot())
        out["cluster.availability"] = self.cluster.service_availability()
        out["cluster.live_blades"] = len(self.cluster.membership.live())
        out["balancer.imbalance"] = self.cluster.balancer.imbalance()
        out["pfs.mapped_bytes"] = float(self.pfs.total_mapped_bytes())
        out["cache.lost_dirty_blocks"] = float(
            len(self.cache.lost_dirty_blocks))
        if self.integrity is not None:
            for key, value in self.integrity.summary().items():
                out[f"integrity.{key}"] = value
        return out
