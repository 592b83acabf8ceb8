"""The globally coherent, pooled controller cache (§2.2, §6.1, §6.3).

Every controller blade contributes its cache memory to one cluster-wide
pool: "the controller blades would use the cache on all the controller
blades as a single, coherent, distributed pool of cache".  Any blade can
serve any block; a miss in the local cache is first sought in a *peer*
cache (a fast interconnect transfer) before falling back to disk.  Writes
are absorbed write-back with N-way replication across blade caches, pinned
"only long enough for the data to be asynchronously written to disk".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..faults.retry import NO_RETRY, RetryPolicy, retry_call
from ..hardware.blade import ControllerBlade
from ..integrity.repair import RepairRequest
from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.timeseries import bind
from ..obs.tracer import NULL_SPAN
from ..sim.events import Event
from ..sim.faults import (FAULT_EXCEPTIONS, SimulatedFault, TransientIOError,
                          find_corruption)
from ..sim.link import FairShareLink
from ..sim.resources import Store
from ..sim.stats import MetricSet
from ..sim.units import gbps, us
from .block_cache import BlockCache, BlockKey, BlockState
from .coherence import Directory

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ManagementPlane
    from ..obs.timeseries import Series
    from ..sim.engine import Simulator

#: Effective memory-copy bandwidth for a cache hit (controller DRAM).
_CACHE_COPY_RATE = 3.2e9

BackingRead = Callable[[BlockKey, int], Event]
BackingWrite = Callable[[BlockKey, int], Event]


class ReplicationError(SimulatedFault):
    """Not enough live blades to satisfy the requested replica count.

    A :class:`~repro.sim.faults.SimulatedFault`: it only arises when
    injected blade failures shrink the pool, so retry/degraded-mode
    handling may catch it.
    """


class CacheCluster:
    """Coherent pooled cache over a set of controller blades.

    ``backing_read`` / ``backing_write`` connect the pool to the layer
    below (RAID arrays via the virtualization layer): both take
    ``(key, nbytes)`` and return a completion event.
    """

    def __init__(self, sim: "Simulator", blades: list[ControllerBlade],
                 backing_read: BackingRead, backing_write: BackingWrite,
                 block_size: int = 64 * 1024,
                 replication: int = 2,
                 interconnect_bandwidth: float | None = None,
                 interconnect_latency: float = us(25),
                 retry_policy: RetryPolicy = NO_RETRY) -> None:
        if not blades:
            raise ValueError("cache cluster needs at least one blade")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.sim = sim
        self.block_size = block_size
        self.replication = replication
        self.backing_read = backing_read
        self.backing_write = backing_write
        self.blades: dict[int, ControllerBlade] = {}
        self.caches: dict[int, BlockCache] = {}
        #: Sorted UP blade ids, derived on demand and dropped whenever a
        #: blade joins or changes state, before any other observer of the
        #: blade runs (see :meth:`add_blade`).
        self._live: list[int] | None = None
        #: Latency handles by (blade id, tier); None with observability off.
        self._latency: dict[tuple[int, str], Series] | None = (
            None if sim.obs is None else {})
        for b in blades:
            self.add_blade(b)
        self._destaged = bind(sim, "cache.destage_blocks")
        self.directory = Directory()
        if sim.obs is not None:
            log = sim.obs.log
            self.directory.observer = lambda kind, key, **attrs: log.debug(
                "cache.coherence", kind, key=str(key), **attrs)
        if interconnect_bandwidth is None:
            # Each blade contributes a couple of Gb/s of mesh capacity.
            interconnect_bandwidth = gbps(4) * len(blades)
        self.interconnect = FairShareLink(sim, interconnect_bandwidth,
                                          interconnect_latency,
                                          name="intercluster")
        self.metrics = MetricSet()
        # Hot-path precomputation: the hit service time never changes, and
        # resolving counters by name per lookup is a dict probe + branch we
        # can pay once here instead of per I/O.
        self._hit_delay = block_size / _CACHE_COPY_RATE + us(5)
        self._ctr_local_hit = self.metrics.counter("read.local_hit")
        self._ctr_remote_hit = self.metrics.counter("read.remote_hit")
        self._ctr_miss = self.metrics.counter("read.miss")
        self.lost_dirty_blocks: list[BlockKey] = []
        #: dirty keys awaiting destage; destagers block on the store, so an
        #: idle system generates no events and unbounded runs terminate.
        self._dirty_queue = Store(sim)
        self._dirty_pending: set[BlockKey] = set()
        self._destager_running = False
        #: Recovery policy for backing-store I/O (miss fills, destages).
        #: The NO_RETRY default reproduces pre-framework behavior exactly.
        self.retry_policy = retry_policy
        #: Injected transient-I/O faults: the next N backing reads/writes
        #: fail with TransientIOError (the fault injector's hook).
        self._forced_read_faults = 0
        self._forced_write_faults = 0
        #: End-to-end integrity (None = disabled, the default: read/write
        #: paths then pay only ``is not None`` tests and no extra events).
        #: Set by the system wiring together with ``repair_chain``, the
        #: escalation used when a backing read fails verification.
        self.integrity = None
        self.repair_chain = None
        #: Armed in-flight corruption: the next N interconnect fills
        #: deliver a damaged payload (the WIRE_CORRUPT fault hook); the
        #: fill digest detects it and one retransmit makes it whole.
        self._wire_corrupt_pending = 0

    def add_blade(self, blade: ControllerBlade) -> None:
        """Pool ``blade``'s cache memory and bind its latency series."""
        bid = blade.blade_id
        self.blades[bid] = blade
        self._live = None
        blade.observe_first(self._drop_live)
        self.caches[bid] = BlockCache(
            max(1, blade.cache_bytes // self.block_size),
            name=f"{blade.name}.cache")
        if self._latency is not None:
            for op, tier in (("read", "local"), ("read", "remote"),
                             ("read", "disk"), ("write", "cached")):
                self._latency[bid, tier] = bind(
                    self.sim, f"cache.{op}_latency_s", blade=bid, tier=tier)

    # -- helpers -----------------------------------------------------------------

    def inject_backing_faults(self, count: int, op: str = "read") -> None:
        """Force the next ``count`` backing reads (or writes) to fail with
        :class:`~repro.sim.faults.TransientIOError` — the fault injector's
        transient-I/O hook."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if op == "read":
            self._forced_read_faults += count
        elif op == "write":
            self._forced_write_faults += count
        else:
            raise ValueError(f"op must be read/write, got {op!r}")

    def corrupt_next_fill(self, count: int) -> None:
        """Arm in-flight corruption on the next ``count`` interconnect
        fills (remote-hit transfers) — the WIRE_CORRUPT fault hook."""
        if self.integrity is None:
            raise RuntimeError("enable integrity before arming wire faults")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._wire_corrupt_pending += count

    def corrupt_cached(self, blade_id: int, key: BlockKey,
                       kind: str = "bitrot") -> bool:
        """Corrupt the resident copy of ``key`` on one blade (in-memory
        bitrot).  Detection happens at the read/destage verification
        points; returns False when the block is not resident there."""
        if self.integrity is None:
            raise RuntimeError(
                "enable integrity before injecting cache corruption")
        if blade_id not in self.caches or not self.caches[blade_id].poison(key):
            return False
        return self.integrity.corrupt("cache", (blade_id, key), 0, kind)

    def _has_clean_peer(self, blade_id: int, key: BlockKey,
                        candidates: set[int]) -> bool:
        """Whether a live blade in ``candidates``, other than
        ``blade_id``, holds an undamaged copy of ``key``."""
        return any(bid != blade_id and bid in self.caches
                   and self.blades[bid].is_up
                   and self.caches[bid].entry(key) is not None
                   and not self.caches[bid].is_poisoned(key)
                   for bid in candidates)

    def _cache_repaired(self, blade_id: int, key: BlockKey, tier: str,
                        started: float) -> None:
        """The damaged copy on ``blade_id`` was made whole from ``tier``."""
        self.caches[blade_id].unpoison(key)
        self.integrity.clear("cache", (blade_id, key))
        self.integrity.note_repaired("cache", (blade_id, key))
        self.metrics.counter(f"integrity.cache_repaired.{tier}").incr()
        self.metrics.tally("integrity.repair_latency").record(
            self.sim.now - started)

    def _cache_unrepairable(self, blade_id: int, key: BlockKey) -> None:
        """No good copy of ``key`` is left anywhere: clear the poison on
        ``blade_id`` and count the loss."""
        self.integrity.note_unrepairable("cache", (blade_id, key))
        self.caches[blade_id].unpoison(key)
        self.metrics.counter("integrity.cache_unrepairable").incr()

    def _repair_cached(self, blade_id: int, key: BlockKey):
        """A local hit failed verification: fetch a good copy in place.

        Tier order mirrors the escalation chain at cache scope — a clean
        peer copy over the interconnect, else a disk refill.  Dirty data
        with no clean replica anywhere has no good copy left: counted
        unrepairable (the corrupt bytes keep serving, loudly accounted).
        """
        t0 = self.sim.now
        self.integrity.note_detected("cache", (blade_id, key))
        self.metrics.counter("integrity.cache_detected").incr()
        entry_dir = self.directory.entry(key)
        if entry_dir is not None and self._has_clean_peer(
                blade_id, key, entry_dir.holders()):
            yield self.interconnect.transfer(self.block_size)
            self._cache_repaired(blade_id, key, "replica", t0)
            return
        entry = self.caches[blade_id].entry(key)
        if entry is not None and entry.state is not BlockState.SHARED \
                and entry_dir is not None and entry_dir.dirty:
            self._cache_unrepairable(blade_id, key)
            return
        try:
            yield from retry_call(
                self.sim, lambda: self._backing(key, self.block_size, "read"),
                self.retry_policy, component="cache.pool")
        except FAULT_EXCEPTIONS:
            self._cache_unrepairable(blade_id, key)
            return
        self._cache_repaired(blade_id, key, "disk", t0)

    def _repair_backing(self, key: BlockKey, corruption):
        """Escalate a backing-read verification miss through the chain,
        then retry the fill.  Returns True when the retried read is clean.
        """
        req = RepairRequest(domain=corruption.domain,
                            address=corruption.address,
                            length=corruption.length, kind=corruption.kind,
                            key=key)
        try:
            yield self.repair_chain.repair(req)
            yield from retry_call(
                self.sim, lambda: self._backing(key, self.block_size, "read"),
                self.retry_policy, component="cache.pool")
        except FAULT_EXCEPTIONS:
            return False
        self.metrics.counter("integrity.backing_repaired").incr()
        return True

    def _backing(self, key: BlockKey, nbytes: int, op: str) -> Event:
        """One backing-store attempt, honouring injected transient faults."""
        if op == "read":
            if self._forced_read_faults > 0:
                self._forced_read_faults -= 1
                failed = Event(self.sim)
                failed.fail(TransientIOError(
                    f"injected backing read fault on {key}"))
                return failed
            return self.backing_read(key, nbytes)
        if self._forced_write_faults > 0:
            self._forced_write_faults -= 1
            failed = Event(self.sim)
            failed.fail(TransientIOError(
                f"injected backing write fault on {key}"))
            return failed
        return self.backing_write(key, nbytes)

    def _drop_live(self, _blade: ControllerBlade) -> None:
        self._live = None

    def live_blades(self) -> list[int]:
        """Blade ids currently UP, sorted (shared: do not mutate)."""
        if self._live is None:
            self._live = sorted(bid for bid, b in self.blades.items()
                                if b.is_up)
        return self._live

    def total_cache_blocks(self) -> int:
        """Pooled capacity grows as blades are added (§2.2)."""
        return sum(self.caches[bid].capacity for bid in self.live_blades())

    def pick_replica_targets(self, origin: int, count: int) -> list[int]:
        """Least-loaded live blades, excluding the origin."""
        candidates = [bid for bid in self.live_blades() if bid != origin]
        if len(candidates) < count:
            raise ReplicationError(
                f"need {count} replica holders, only {len(candidates)} "
                "peer blades are up")
        candidates.sort(key=lambda bid: (len(self.caches[bid]), bid))
        return candidates[:count]

    # -- read path ------------------------------------------------------------------

    def read(self, blade_id: int, key: BlockKey, priority: int = 0,
             parent=None) -> Event:
        """Read one block through ``blade_id``; event value is the source
        tier: ``"local"``, ``"remote"`` or ``"disk"``.  ``parent`` is an
        optional tracing span to nest under (request-following)."""
        return self.sim.process(self._read(blade_id, key, priority, parent),
                                name="cache.read")

    def _read(self, blade_id: int, key: BlockKey, priority: int,
              parent=None):
        obs = self.sim.obs
        latency = self._latency
        t0 = self.sim.now
        span = (obs.tracer.span("cache.read", parent=parent, blade=blade_id)
                if obs is not None else NULL_SPAN)
        with span:
            blade = self.blades[blade_id]
            cache = self.caches[blade_id]
            integ = self.integrity
            with span.child("blade.cpu"):
                yield from blade.execute(blade.io_cpu_cost(self.block_size))
            if cache.lookup(key) is not None:
                if integ is not None and cache.is_poisoned(key):
                    # Checksum miss on the resident copy: repair in place
                    # (clean peer replica, else disk) before serving.
                    span.annotate(integrity="repair")
                    with span.child("integrity.repair_cached"):
                        yield from self._repair_cached(blade_id, key)
                self._ctr_local_hit.incr()
                span.annotate(tier="local")
                yield self.sim.timeout(self._hit_delay)
                if latency is not None:
                    latency[blade_id, "local"].record(self.sim.now - t0)
                return "local"
            actions = self.directory.acquire_shared(blade_id, key)
            source = actions.fetch_from
            if source is not None and source in self.blades \
                    and self.blades[source].is_up:
                if integ is not None and self.caches[source].is_poisoned(key):
                    # The peer's copy fails its fill digest: refuse to
                    # spread the bad bytes; fall through to a disk fill.
                    integ.note_detected("cache", (source, key))
                    self.metrics.counter(
                        "integrity.peer_fill_rejected").incr()
                    span.annotate(integrity="peer_fill_rejected")
                    if obs is not None:
                        obs.log.warning("cache.pool", "peer_fill_rejected",
                                        key=str(key), source=source)
                else:
                    # Peer-cache transfer: far faster than a disk access.
                    self._ctr_remote_hit.incr()
                    span.annotate(tier="remote", source=source)
                    with span.child("cache.peer_fetch", source=source):
                        yield self.interconnect.transfer(self.block_size)
                    if integ is not None and self._wire_corrupt_pending > 0:
                        # In-flight damage caught by the transfer digest:
                        # one retransmit makes the fill whole.
                        self._wire_corrupt_pending -= 1
                        integ.wire_event("wire_corrupt", detected=True,
                                         repaired=True)
                        self.metrics.counter(
                            "integrity.fill_retransmits").incr()
                        with span.child("integrity.retransmit"):
                            yield self.interconnect.transfer(self.block_size)
                    cache.insert(key, BlockState.SHARED, priority,
                                 self.sim.now)
                    if latency is not None:
                        latency[blade_id, "remote"].record(self.sim.now - t0)
                    return "remote"
            self._ctr_miss.incr()
            span.annotate(tier="disk")
            try:
                with span.child("backing.read"):
                    yield from retry_call(
                        self.sim,
                        lambda: self._backing(key, self.block_size, "read"),
                        self.retry_policy, component="cache.pool")
            except FAULT_EXCEPTIONS as exc:
                corruption = (find_corruption(exc)
                              if self.repair_chain is not None else None)
                if corruption is not None:
                    with span.child("integrity.repair_backing"):
                        repaired = yield from self._repair_backing(
                            key, corruption)
                    if repaired:
                        cache.insert(key, BlockState.SHARED, priority,
                                     self.sim.now)
                        if latency is not None:
                            latency[blade_id, "disk"].record(
                                self.sim.now - t0)
                        return "disk"
                self.metrics.counter("read.backing_errors").incr()
                if obs is not None:
                    obs.log.error("cache.pool", "backing_read_failed",
                                  key=str(key), blade=blade_id)
                raise
            cache.insert(key, BlockState.SHARED, priority, self.sim.now)
            if latency is not None:
                latency[blade_id, "disk"].record(self.sim.now - t0)
            return "disk"

    # -- write path ------------------------------------------------------------------

    def write(self, blade_id: int, key: BlockKey,
              replicas: int | None = None, priority: int = 0,
              parent=None) -> Event:
        """Write-back one block through ``blade_id`` with N-way replication.

        The event fires when the data is *safe* (owner + N−1 replicas in
        cache), not when it reaches disk — that's the destager's job.
        ``parent`` is an optional tracing span to nest under.
        """
        return self.sim.process(self._write(blade_id, key, replicas,
                                            priority, parent),
                                name="cache.write")

    def _write(self, blade_id: int, key: BlockKey, replicas: int | None,
               priority: int, parent=None):
        n = self.replication if replicas is None else replicas
        if n < 1:
            raise ValueError("replicas must be >= 1")
        obs = self.sim.obs
        t0 = self.sim.now
        span = (obs.tracer.span("cache.write", parent=parent,
                                blade=blade_id, replicas=n)
                if obs is not None else NULL_SPAN)
        with span:
            blade = self.blades[blade_id]
            cache = self.caches[blade_id]
            with span.child("blade.cpu"):
                yield from blade.execute(blade.io_cpu_cost(self.block_size))
            actions = self.directory.acquire_exclusive(blade_id, key)
            if actions.invalidate:
                # One round of invalidation messages, in parallel.
                self.metrics.counter("coherence.invalidations").incr(
                    len(actions.invalidate))
                for victim in actions.invalidate:
                    if victim in self.caches:
                        self.caches[victim].drop(key)
                with span.child("coherence.invalidate",
                                victims=len(actions.invalidate)):
                    yield self.sim.timeout(self.interconnect.latency)
            yield self.sim.timeout(self._hit_delay)
            cache.insert(key, BlockState.MODIFIED, priority, self.sim.now)
            if n > 1:
                try:
                    targets = self.pick_replica_targets(blade_id, n - 1)
                except ReplicationError as exc:
                    if obs is not None:
                        obs.log.error("cache.pool", "replication_failed",
                                      key=str(key), wanted=n - 1,
                                      live=len(self.live_blades()))
                    raise
                transfers = [self.interconnect.transfer(self.block_size)
                             for _ in targets]
                with span.child("cache.replicate", targets=len(targets)):
                    yield self.sim.all_of(transfers)
                for target in targets:
                    self.caches[target].insert(key, BlockState.REPLICA,
                                               priority, self.sim.now)
                self.directory.register_replicas(key, set(targets))
                self.metrics.counter("write.replicas_placed").incr(len(targets))
            self._enqueue_dirty(key)
            self.metrics.counter("write.absorbed").incr()
            if self._latency is not None:
                self._latency[blade_id, "cached"].record(self.sim.now - t0)
            return "cached"

    # -- destage ---------------------------------------------------------------------

    def destage(self, key: BlockKey) -> Event:
        """Push one dirty block to disk and release all pins."""
        return self.sim.process(self._destage(key), name="cache.destage")

    def _verify_before_destage(self, key: BlockKey, entry_dir):
        """Destage is the last verification point before corrupt bytes
        would become the durable truth: a poisoned owner copy is repaired
        from a clean pinned replica, or loudly counted unrepairable."""
        owner = entry_dir.owner
        if owner is None or owner not in self.caches \
                or not self.caches[owner].is_poisoned(key):
            return
        t0 = self.sim.now
        self.integrity.note_detected("cache", (owner, key))
        self.metrics.counter("integrity.cache_detected").incr()
        if self._has_clean_peer(owner, key, entry_dir.replica_holders):
            yield self.interconnect.transfer(self.block_size)
            self._cache_repaired(owner, key, "replica", t0)
        else:
            # Dirty data with every copy damaged: nothing clean exists
            # anywhere, so the write proceeds (the alternative is losing
            # the block outright) and the loss is accounted.
            self._cache_unrepairable(owner, key)

    def _destage(self, key: BlockKey):
        entry = self.directory.entry(key)
        if entry is None or not entry.dirty:
            return False
        if self.integrity is not None:
            yield from self._verify_before_destage(key, entry)
        obs = self.sim.obs
        span = (obs.tracer.span("cache.destage")
                if obs is not None else NULL_SPAN)
        try:
            with span, span.child("backing.write"):
                yield from retry_call(
                    self.sim,
                    lambda: self._backing(key, self.block_size, "write"),
                    self.retry_policy, component="cache.pool")
        except FAULT_EXCEPTIONS:
            # Destage target failed (disk rebuild pending): keep the block
            # dirty and pinned; retry on a later pass.
            self.metrics.counter("destage.errors").incr()
            if obs is not None:
                obs.log.warning("cache.pool", "destage_retry", key=str(key))
            self._enqueue_dirty(key)
            return False
        released = self.directory.destaged(key)
        for bid in released:
            if bid in self.caches:
                self.caches[bid].clean(key)
        self.metrics.counter("destage.completed").incr()
        if self._destaged is not None:
            self._destaged.incr()
        return True

    def _enqueue_dirty(self, key: BlockKey) -> None:
        if key not in self._dirty_pending:
            self._dirty_pending.add(key)
            self._dirty_queue.put(key)

    def _dequeue_dirty(self, key: BlockKey) -> None:
        if key in self._dirty_pending:
            self._dirty_pending.discard(key)
            try:
                self._dirty_queue.items.remove(key)
            except ValueError:
                pass  # a destager already took it

    def start_destager(self, concurrency: int = 4) -> None:
        """Run background destage workers for the rest of the simulation.

        Workers block on the dirty queue, so they cost nothing while idle
        and the simulation still terminates when client work is done.
        """
        if self._destager_running:
            return
        self._destager_running = True
        for _ in range(concurrency):
            self.sim.process(self._destage_loop(), name="cache.destager")

    def _destage_loop(self):
        while True:
            key = yield self._dirty_queue.get()
            self._dirty_pending.discard(key)
            yield self.destage(key)

    def drain_dirty(self) -> Event:
        """Destage everything currently dirty (used by tests/shutdown)."""
        return self.sim.process(self._drain(), name="cache.drain")

    def _drain(self):
        while self._dirty_queue.items:
            key = self._dirty_queue.items.popleft()
            self._dirty_pending.discard(key)
            yield self.destage(key)

    # -- failure handling -----------------------------------------------------------------

    def on_blade_fail(self, blade_id: int) -> tuple[int, int]:
        """A blade died: its cache is gone.

        Dirty blocks it owned survive iff a replica exists (the replica is
        promoted to owner, §6.1 — N-way replication survives N−1 failures).
        Returns ``(salvaged_count, lost_count)``.
        """
        if blade_id in self.caches:
            self.caches[blade_id].drop_all()
        salvaged, lost = self.directory.blade_failed(blade_id)
        for key in salvaged:
            entry = self.directory.entry(key)
            new_owner = entry.owner if entry else None
            if new_owner is not None and new_owner in self.caches:
                promoted = self.caches[new_owner].entry(key)
                if promoted is not None:
                    promoted.state = BlockState.MODIFIED
            self._enqueue_dirty(key)
        for key in lost:
            self._dequeue_dirty(key)
        self.lost_dirty_blocks.extend(lost)
        self.metrics.counter("failure.salvaged").incr(len(salvaged))
        self.metrics.counter("failure.lost").incr(len(lost))
        obs = self.sim.obs
        if obs is not None:
            if lost:
                obs.log.critical("cache.pool", "dirty_data_lost",
                                 blade=blade_id, lost=len(lost),
                                 salvaged=len(salvaged))
            else:
                obs.log.error("cache.pool", "blade_cache_lost",
                              blade=blade_id, salvaged=len(salvaged))
        return len(salvaged), len(lost)

    def on_blade_repair(self, blade_id: int) -> None:
        """A blade rejoined (replaced/rebooted) with a cold cache.

        Nothing structural to restore — :meth:`on_blade_fail` already
        dropped its contents and reassigned dirty owners — but the rejoin
        is recorded so health/metrics reflect the recovery.
        """
        self.metrics.counter("failure.blade_repairs").incr()
        obs = self.sim.obs
        if obs is not None:
            obs.log.info("cache.pool", "blade_rejoined", blade=blade_id)

    # -- health ------------------------------------------------------------------------

    def hit_ratio(self) -> float:
        """Fraction of reads served from cache (local or peer); 1.0 when
        no reads have happened yet."""
        hits = self._ctr_local_hit.value + self._ctr_remote_hit.value
        total = hits + self._ctr_miss.value
        return hits / total if total else 1.0

    def health(self) -> ComponentHealth:
        """Pool-level health for the management plane."""
        live = len(self.live_blades())
        total = len(self.blades)
        if live == 0:
            state = HealthState.FAILED
        elif live < total or self.lost_dirty_blocks:
            state = HealthState.DEGRADED
        else:
            state = HealthState.UP
        return ComponentHealth("cache.pool", state, metrics={
            "hit_ratio": self.hit_ratio(),
            "live_blades": float(live),
            "cached_blocks": float(sum(len(c) for c in self.caches.values())),
            "dirty_blocks": float(len(self._dirty_pending)),
            "lost_dirty_blocks": float(len(self.lost_dirty_blocks)),
        }, detail=f"{live}/{total} blades up")

    def register_health(self, mgmt: "ManagementPlane") -> None:
        """Register the pool plus every member blade with ``mgmt``."""
        mgmt.register("cache.pool", self.health)
        for _bid, blade in sorted(self.blades.items()):
            mgmt.register(blade.name, blade.health)
