"""Cluster-level rebuild coordination: workers live on blades (§6.3).

"Rebuilds would be distributed, in a fault tolerant fashion, across the
controllers within the cluster.  If a controller failed during a rebuild,
the rebuild would automatically continue on other available controllers."
The coordinator assigns one worker of a rebuild
:class:`~repro.sim.regions.RegionJob` per participating blade, wires
membership so a blade failure interrupts its worker (the region returns
to the queue), and re-spawns the lost worker on a survivor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hardware.blade import ControllerBlade
from ..sim.regions import RegionEngine, RegionJob
from .membership import ClusterMembership

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.process import Process


class ClusterRebuildCoordinator:
    """Maps rebuild workers onto live controller blades."""

    def __init__(self, sim: "Simulator", membership: ClusterMembership,
                 io_priority: float = 10.0) -> None:
        self.sim = sim
        self.membership = membership
        self.engine = RegionEngine(sim, io_priority=io_priority)
        self._assignments: dict[int, "Process"] = {}  # blade -> worker
        self._job: RegionJob | None = None
        self.respawned = 0
        membership.on_change(self._on_membership)

    def start(self, job: RegionJob,
              blades: list[int] | None = None) -> list["Process"]:
        """Launch one worker per blade (default: every live blade)."""
        if self._job is not None and not self._job.done:
            raise RuntimeError("a rebuild is already coordinated")
        self._job = job
        targets = blades if blades is not None else self.membership.live_ids()
        if not targets:
            raise RuntimeError("no live blades to host rebuild workers")
        workers = self.engine.start(job, workers=len(targets))
        self._assignments.update(zip(targets, workers))
        return workers

    @property
    def active_workers(self) -> int:
        return sum(1 for w in self._assignments.values() if w.is_alive)

    def _on_membership(self, blade: ControllerBlade, event: str) -> None:
        if event != "failed" or self._job is None or self._job.done:
            return
        worker = self._assignments.pop(blade.blade_id, None)
        if worker is not None and worker.is_alive:
            worker.interrupt(f"blade {blade.blade_id} failed")
        # Continue on another available controller that has no worker yet,
        # or double up on the least-loaded survivor.
        survivors = [bid for bid in self.membership.live_ids()]
        if not survivors:
            return
        spare = next((bid for bid in survivors
                      if bid not in self._assignments), survivors[0])
        replacement = self.engine.add_worker(self._job)
        self._assignments[spare] = replacement
        self.respawned += 1
