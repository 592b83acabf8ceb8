"""Distributed, non-disruptive backup (§2.4).

"Storage management services could also be load-balanced and distributed
across controller blades.  As a result, operations, such as rebuilds,
backups, and point-in-time copies, would go faster and not impede active
I/O rates being delivered to servers."

A backup streams a point-in-time snapshot's mapped pages to a backup
target (a tape library / VTL behind a shared link).  It is a
:class:`~repro.sim.regions.RegionJob` over the pages, run by the same
engine and workers as a rebuild, reading the pool at the engine's
background priority so foreground service is undisturbed.
"""

from __future__ import annotations

from typing import Callable

from ..sim.events import Event
from ..sim.link import FairShareLink
from ..sim.regions import RegionJob
from ..virt.snapshot import Snapshot

#: pool_read(nbytes, priority) -> Event — how a worker fetches page data.
PoolRead = Callable[[int, float], Event]


def backup_job(snapshot: Snapshot, pool_read: PoolRead,
               target_link: FairShareLink, region: int = 32) -> RegionJob:
    """Backup of ``snapshot``: each step reads one page from the pool and
    streams it to ``target_link``.  Bytes backed up are
    ``job.completed * snapshot.page_size``."""
    page_size = snapshot.page_size

    def step(_page: int, priority: float):
        yield pool_read(page_size, priority)
        yield target_link.transfer(page_size)

    return RegionJob("backup", sorted(snapshot._table), step, region,
                     snapshot=snapshot.name)
