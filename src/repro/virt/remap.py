"""Transparent physical data movement via map updates (§3).

"Changes in the physical location of storage blocks (to service access
patterns, performance requirements, growth requirements, or failure
recovery) can be accommodated by a simple update of the virtual-to-real
mappings."  The migrator moves DMSD pages off a pool with one map update
per page — the host never notices — which is pool evacuation
(decommissioning a legacy array without downtime).

Pages shared with snapshots (refcount > 1) are skipped rather than
migrated: moving them would have to update every referencing table, and a
shared page is by definition historical data that is cheap to leave in
place until its snapshots expire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .allocator import Allocator, PageRef
from .dmsd import DemandMappedDevice


@dataclass
class MigrationReport:
    """Outcome of one migration pass."""

    moved_pages: int = 0
    moved_bytes: int = 0
    skipped_shared: int = 0
    skipped_no_space: int = 0
    by_target_pool: dict[str, int] = field(default_factory=dict)


class PageMigrator:
    """Moves mapped pages off a pool with map-update semantics."""

    def __init__(self, allocator: Allocator) -> None:
        self.allocator = allocator

    def evacuate_pool(self, pool_name: str,
                      devices: list[DemandMappedDevice]) -> MigrationReport:
        """Drain every device's pages off one pool (decommissioning).

        Target tier is unconstrained — pages land wherever there is room
        outside the evacuating pool.
        """
        if pool_name not in self.allocator.pools:
            raise ValueError(f"unknown pool {pool_name!r}")
        report = MigrationReport()
        others = [p for name, p in self.allocator.pools.items()
                  if name != pool_name]
        if not others:
            raise ValueError("no other pool to evacuate into")
        for device in devices:
            for page_index in sorted(device._table):
                ref = device._table[page_index]
                if ref.pool != pool_name:
                    continue
                if self.allocator.refcount(ref) > 1:
                    report.skipped_shared += 1
                    continue
                target = max(others, key=lambda p: p.free_pages)
                if target.free_pages == 0:
                    report.skipped_no_space += 1
                    continue
                fresh = PageRef(target.name, target.allocate())
                self.allocator._refcounts[fresh] = 1
                device._table[page_index] = fresh
                self.allocator.decref(ref)
                report.moved_pages += 1
                report.moved_bytes += device.page_size
                report.by_target_pool[fresh.pool] = \
                    report.by_target_pool.get(fresh.pool, 0) + 1
        return report
