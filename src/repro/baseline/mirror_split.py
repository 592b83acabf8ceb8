"""Volume-level remote replication by periodic mirror-split (§7.2).

"Originally, this could only be done by creating local mirrors of data,
periodically taking a mirror offline, copying the offline mirror to a
remote volume, updating the local mirror, and bringing it back online.
This approach requires three to four times the data storage and leaves
large opportunities for data loss."  The model replays that cycle and
counts what it costs: the storage multiple and the whole volume shipped
over the WAN every cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class MirrorSplitReplicator:
    """Periodic split-copy-resync remote replication of one volume."""

    #: primary + local mirror + offline split copy + remote copy
    STORAGE_MULTIPLE = 4

    def __init__(self, sim: "Simulator", volume_bytes: int,
                 wan_bandwidth: float, period: float) -> None:
        if volume_bytes <= 0 or wan_bandwidth <= 0 or period <= 0:
            raise ValueError("volume, bandwidth, period must be > 0")
        self.sim = sim
        self.volume_bytes = volume_bytes
        self.wan_bandwidth = wan_bandwidth
        self.period = period
        self.cycles = 0
        self.running = False

    @property
    def copy_time(self) -> float:
        """The full volume crosses the WAN every cycle (volume-level —
        'every byte of data is treated the same whether appropriate or
        not')."""
        return self.volume_bytes / self.wan_bandwidth

    def start(self) -> None:
        """Begin the periodic split/copy/resync cycle."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._cycle(), name="mirror_split")

    def _cycle(self):
        while True:
            yield self.sim.timeout(self.period)
            # Split the third mirror, ship it, resync it.
            yield self.sim.timeout(self.copy_time)
            self.cycles += 1

    def wan_bytes_per_period(self) -> int:
        """WAN bytes each cycle ships: the whole volume, changed or not."""
        return self.volume_bytes
