"""Snapshot-delta shipping: SnapMirror-style remote replication ([1], §7.2).

Between synchronous/asynchronous per-write replication and the old
mirror-split approach sits the snapshot-shipping scheme the paper cites
(NetApp SnapMirror): snapshot the device, diff the page tables against
the last shipped snapshot, and send only the changed pages.  Traffic is
proportional to the *delta*, and the remote copy is always
crash-consistent (it is a snapshot).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..virt.dmsd import DemandMappedDevice
from ..virt.snapshot import Snapshot, take_snapshot
from .site import Site
from .wan import WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


def snapshot_delta_pages(old: Snapshot | None, new: Snapshot) -> int:
    """Pages that must ship: present in ``new`` and changed/absent in ``old``."""
    if old is None:
        return len(new._table)
    changed = 0
    for page_index, ref in new._table.items():
        if old._table.get(page_index) != ref:
            changed += 1
    return changed


class SnapshotShippingReplicator:
    """Ships snapshot deltas of one DMSD across the WAN, one cycle per call."""

    def __init__(self, sim: "Simulator", device: DemandMappedDevice,
                 network: WanNetwork, source: Site, target: Site) -> None:
        self.sim = sim
        self.device = device
        self.network = network
        self.source = source
        self.target = target
        self._baseline: Snapshot | None = None
        self.cycles = 0
        self.bytes_shipped = 0

    def ship_now(self):
        """One shipping cycle (a process fragment): snapshot the device,
        send the pages changed since the last shipped snapshot, and make
        the new snapshot the baseline."""
        snap = take_snapshot(self.device, f"ship-{self.cycles}",
                             now=self.sim.now)
        delta_pages = snapshot_delta_pages(self._baseline, snap)
        delta_bytes = delta_pages * self.device.page_size
        if delta_bytes > 0:
            try:
                yield self.network.transfer(self.source, self.target,
                                            delta_bytes)
                yield self.target.store_write(delta_bytes)
            except BaseException:
                # The delta never became the new baseline: release the
                # snapshot so its page references don't leak capacity.
                snap.delete()
                raise
            self.bytes_shipped += delta_bytes
        if self._baseline is not None:
            self._baseline.delete()
        self._baseline = snap
        self.cycles += 1
