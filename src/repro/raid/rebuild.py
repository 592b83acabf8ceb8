"""Rebuild: reconstructing a lost disk's chunks from its peers.

§2.4/§6.3 claim distributed, fault-tolerant rebuilds.  A rebuild is a
:class:`~repro.sim.regions.RegionJob` over the stripes the disk held:
workers on any number of blades pull stripe regions from its queue, so
the rebuild rate scales with workers until the member disks saturate,
and a dying worker returns its region to the survivors.  The layout owns
the per-stripe work (``rebuild_stripes``/``rebuild_stripe``).
"""

from __future__ import annotations

from functools import partial

from ..sim.regions import RegionJob
from .array import RaidArray
from .decluster import DeclusteredPool


def rebuild_job(target: RaidArray | DeclusteredPool, disk: int,
                region: int = 64) -> RegionJob:
    """Rebuild of ``disk``: a RAID group rewrites the replaced disk in
    place (``raid.rebuild``); a declustered pool rebuilds the failed
    disk's chunks into distributed spare space (``raid.drebuild``)."""
    return RegionJob(target.rebuild_component, target.rebuild_stripes(disk),
                     partial(target.rebuild_stripe, disk), region, disk=disk)
