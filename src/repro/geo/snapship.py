"""Snapshot-delta shipping: SnapMirror-style remote replication ([1], §7.2).

Between synchronous/asynchronous per-write replication and the old
mirror-split approach sits the snapshot-shipping scheme the paper cites
(NetApp SnapMirror): periodically snapshot the device, diff the page
tables against the last shipped snapshot, and send only the changed
pages.  Traffic is proportional to the *delta*, the remote copy is always
crash-consistent (it is a snapshot), and RPO is bounded by the period
plus the ship time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.stats import Tally
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
    """Ships periodic snapshot deltas of one DMSD across the WAN."""

    def __init__(self, sim: "Simulator", device: DemandMappedDevice,
                 network: WanNetwork, source: Site, target: Site,
                 period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.sim = sim
        self.device = device
        self.network = network
        self.source = source
        self.target = target
        self.period = period
        self._baseline: Snapshot | None = None
        self.cycles = 0
        self.skipped_cycles = 0
        self.bytes_shipped = 0
        self.last_complete_sync: float = float("-inf")
        self.cycle_durations = Tally()
        self._running = False

    def start(self) -> None:
        """Begin periodic snapshot-delta shipping."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._loop(), name="snapship")

    def _loop(self):
        while True:
            yield self.sim.timeout(self.period)
            if self.source.failed or self.target.failed:
                self.skipped_cycles += 1
                continue
            try:
                yield from self._one_cycle()
            except FAULT_EXCEPTIONS:
                # An endpoint or route died *mid-cycle* (the pre-check
                # above only sees faults that land between cycles): skip
                # this delta — the next cycle re-diffs against the same
                # baseline, so nothing is lost.
                self.skipped_cycles += 1

    def _one_cycle(self):
        started = self.sim.now
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
        self.last_complete_sync = self.sim.now
        self.cycle_durations.record(self.sim.now - started)

    def ship_now(self):
        """One immediate cycle (a process fragment, for tests/benches)."""
        yield from self._one_cycle()

    def rpo_at(self, failure_time: float) -> float:
        """Exposure window at a source-site failure: everything written
        since the snapshot of the newest complete transfer."""
        if self.last_complete_sync == float("-inf"):
            return failure_time
        last_duration = (self.cycle_durations.samples()[-1]
                         if self.cycle_durations.count else 0.0)
        return failure_time - (self.last_complete_sync - last_duration)
