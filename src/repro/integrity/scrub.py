"""Background scrub: walk the declustered farm and verify every chunk.

Silent corruption is only "silent" until something reads the range;
client traffic rarely covers a whole farm, so a background process walks
every stripe's chunks at a configurable rate (Lustre-style periodic
verification).  Scrub I/O runs at background priority so foreground reads
preempt it at the spindles, and every verification miss escalates through
the :class:`~repro.integrity.repair.RepairChain` immediately — the window
between corruption and repair is bounded by one scrub pass.

Scrubbing is explicit (``NetStorageSystem.start_scrub()``), never
implicit: its disk reads perturb head positions and queue timings, so a
run that wants byte-identical traces with integrity accounting enabled
simply doesn't start the daemon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.timeseries import bind
from ..sim.faults import CorruptionError, FAULT_EXCEPTIONS, find_corruption
from .repair import RepairChain, RepairRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..raid.decluster import DeclusteredPool
    from ..sim.engine import Simulator
    from .manager import IntegrityManager

#: Scrub I/O priority: below destage (10.0) so even background flushes
#: outrank verification reads at the disk queues.
SCRUB_PRIORITY = 15.0


class ScrubDaemon:
    """Walks the pool's stripes chunk by chunk, verifying each read."""

    def __init__(self, sim: "Simulator", pool: "DeclusteredPool",
                 manager: "IntegrityManager",
                 chain: RepairChain | None = None,
                 rate: float = 32 * 1024 * 1024,
                 priority: float = SCRUB_PRIORITY,
                 name: str = "integrity.scrub") -> None:
        if rate <= 0:
            raise ValueError(f"scrub rate must be > 0, got {rate}")
        self.sim = sim
        self.pool = pool
        self.manager = manager
        self.chain = chain
        self.rate = rate
        self.priority = priority
        self.name = name
        self.running = False
        self.chunks_scrubbed = 0
        self.misses_found = 0
        self.repairs_failed = 0
        self.passes_completed = 0
        self._pass_started: float | None = None
        # Level series: the scrub-lag SLO thresholds on the last pass
        # duration, carried forward between completions.
        self._pass_duration = bind(sim, "scrub.pass_duration_s", level=True)
        self._misses = bind(sim, "scrub.misses")

    def start(self, passes: int | None = 1,
              idle_between_passes: float = 60.0) -> None:
        """Run ``passes`` full-farm passes (None = until the run ends)."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._run(passes, idle_between_passes),
                         name=self.name)

    def _run(self, passes: int | None, idle: float):
        pool = self.pool
        chunk = pool.chunk_size
        pace = chunk / self.rate
        obs = self.sim.obs
        while passes is None or self.passes_completed < passes:
            self._pass_started = self.sim.now
            for stripe in range(pool.stripe_count):
                members = pool.stripe_members(stripe)
                for member, disk_index in enumerate(members):
                    if disk_index in pool.failed:
                        continue  # the rebuild, not the scrub, owns it
                    disk = pool.disks[disk_index]
                    slot = pool.chunk_slot(stripe, disk_index)
                    try:
                        yield disk.read(slot, chunk, self.priority)
                    except FAULT_EXCEPTIONS as exc:
                        corruption = find_corruption(exc)
                        if corruption is None:
                            continue  # disk died mid-pass: move on
                        yield from self._escalate(corruption, stripe,
                                                  member, disk_index)
                    self.chunks_scrubbed += 1
                    yield self.sim.timeout(pace)
            self.passes_completed += 1
            if obs is not None:
                obs.log.info(self.name, "pass_completed",
                             passes=self.passes_completed,
                             chunks=self.chunks_scrubbed,
                             misses=self.misses_found)
            if self._pass_duration is not None:
                self._pass_duration.record(self.sim.now - self._pass_started)
                self._misses.incr(self.misses_found)
            if passes is None or self.passes_completed < passes:
                yield self.sim.timeout(idle)
        self.running = False

    def _escalate(self, corruption: CorruptionError, stripe: int,
                  member: int, disk_index: int):
        self.misses_found += 1
        obs = self.sim.obs
        if obs is not None:
            obs.log.warning(self.name, "verification_miss",
                            domain=corruption.domain, stripe=stripe,
                            fault_kind=corruption.kind)
        if self.chain is None:
            return
        req = RepairRequest(domain=corruption.domain,
                            address=corruption.address,
                            length=corruption.length, kind=corruption.kind,
                            stripe=stripe, member=member, disk=disk_index)
        try:
            yield self.chain.repair(req)
        except FAULT_EXCEPTIONS:
            self.repairs_failed += 1  # counted unrepairable by the chain

    # -- management plane -------------------------------------------------------

    def health(self) -> ComponentHealth:
        state = (HealthState.FAILED if self.repairs_failed
                 else HealthState.UP)
        return ComponentHealth(self.name, state, metrics={
            "chunks_scrubbed": float(self.chunks_scrubbed),
            "misses_found": float(self.misses_found),
            "repairs_failed": float(self.repairs_failed),
            "passes_completed": float(self.passes_completed),
            "running": 1.0 if self.running else 0.0,
        }, detail=f"{self.passes_completed} passes")

    def register_health(self, mgmt) -> None:
        mgmt.register(self.name, self.health)
