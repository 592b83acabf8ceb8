"""Disk drive model: seek + rotation + transfer with a FIFO queue.

Calibrated to circa-2002 Fibre Channel drives (the paper's disk farm): a
few milliseconds of seek, 10k RPM rotation, tens of MB/s media rate.  The
model keeps the properties the paper's claims depend on:

* sequential streams amortize positioning cost (big-iron feeds, §2.3);
* random hot-spot traffic queues and saturates a single spindle (§2.2);
* rebuild reads/writes compete with foreground I/O for disk time (§2.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim.events import Event
from ..sim.faults import CorruptionError, SimulatedFault
from ..sim.resources import PriorityResource
from ..sim.stats import TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from ..integrity.manager import IntegrityManager
    from ..sim.engine import Simulator


class DiskFailedError(SimulatedFault):
    """Raised (via event failure) when I/O is issued to a failed disk."""


class Disk:
    """A single spindle with deterministic service times.

    Parameters mirror a datasheet: ``seek_time`` (average), ``rpm`` (half a
    rotation of latency on random access), ``transfer_rate`` (media rate,
    bytes/s).  Requests are served one at a time from a priority queue so
    background work (rebuild, scrub) can yield to foreground I/O.
    """

    def __init__(self, sim: "Simulator", capacity: int,
                 seek_time: float = 0.005, rpm: float = 10_000.0,
                 transfer_rate: float = 40e6, name: str = "disk") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if transfer_rate <= 0:
            raise ValueError(f"transfer_rate must be > 0, got {transfer_rate}")
        self.sim = sim
        self.capacity = int(capacity)
        self.seek_time = seek_time
        self.rotational_latency = 30.0 / rpm  # half a revolution, seconds
        self.transfer_rate = transfer_rate
        self.name = name
        self.failed = False
        self._queue = PriorityResource(sim, capacity=1)
        self._head_pos: int | None = None  # byte offset after last I/O
        self.utilization = TimeWeighted(sim)
        self.ops = 0
        self.bytes_moved = 0
        #: End-to-end integrity hook (None = checksumming disabled, the
        #: default: the data path then pays a single ``is not None`` test).
        #: When set, writes stamp their range and reads verify it, failing
        #: the I/O with :class:`~repro.sim.faults.CorruptionError` on a
        #: checksum miss — after the full media service time, like a real
        #: drive that reads the sector before the T10-DIF check can fail.
        self.integrity: "IntegrityManager | None" = None

    # -- failure control ------------------------------------------------------

    def fail(self) -> None:
        """Mark the disk failed; subsequent I/O events fail."""
        self.failed = True

    def repair(self) -> None:
        """Bring the disk back (contents are considered lost: new drive)."""
        self.failed = False
        self._head_pos = None

    # -- I/O -------------------------------------------------------------------

    def read(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Read ``nbytes`` at ``offset``; event fires on completion."""
        return self._io(offset, nbytes, priority, "read")

    def write(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Write ``nbytes`` at ``offset``; event fires on completion."""
        return self._io(offset, nbytes, priority, "write")

    def _io(self, offset: int, nbytes: int, priority: float,
            op: str) -> Event:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity:
            raise ValueError(
                f"I/O [{offset}, {offset + nbytes}) outside disk of "
                f"{self.capacity} bytes")
        return self.sim.process(self._serve(offset, nbytes, priority, op),
                                name=f"{self.name}.io")

    def service_time(self, offset: int, nbytes: int) -> float:
        """Deterministic service time for the next request at ``offset``.

        Seek cost follows the classic square-root-of-distance curve: a jump
        to an adjacent zone costs the track-to-track minimum (~1/6 of the
        average), a third-of-the-disk jump costs the datasheet average, and
        sequential access costs nothing.
        """
        positioning = 0.0
        if self._head_pos is None:
            positioning = self.seek_time + self.rotational_latency
        elif offset != self._head_pos:
            distance = abs(offset - self._head_pos) / self.capacity
            seek_min = self.seek_time / 6.0
            seek = seek_min + (self.seek_time - seek_min) * min(
                1.0, (3.0 * distance) ** 0.5)
            positioning = seek + self.rotational_latency
        return positioning + nbytes / self.transfer_rate

    def _serve(self, offset: int, nbytes: int, priority: float,
               op: str) -> Generator:
        if self.failed:
            raise DiskFailedError(f"{self.name} has failed")
        req = self._queue.request(priority=priority)
        yield req
        try:
            if self.failed:
                raise DiskFailedError(f"{self.name} has failed")
            self.utilization.record(1.0)
            service = self.service_time(offset, nbytes)
            self._head_pos = offset + nbytes
            yield self.sim.timeout(service)
            if self.failed:
                raise DiskFailedError(f"{self.name} failed mid-I/O")
            self.ops += 1
            self.bytes_moved += nbytes
            integ = self.integrity
            if integ is not None:
                if op == "write":
                    integ.stamp(self.name, offset, nbytes)
                else:
                    miss = integ.verify(self.name, offset, nbytes)
                    if miss is not None:
                        start, length, kind = miss
                        integ.note_detected(self.name, start)
                        raise CorruptionError(self.name, start, length, kind)
            return nbytes
        finally:
            self._queue.release(req)
            if self._queue.in_use == 0:
                self.utilization.record(0.0)

    @property
    def queue_depth(self) -> int:
        """Requests waiting plus in service."""
        return self._queue.queue_length + self._queue.in_use

    def mean_utilization(self) -> float:
        """Time-weighted busy fraction of the spindle."""
        return self.utilization.mean()


def make_disk_farm(sim: "Simulator", count: int, capacity: int,
                   name: str = "farm", **disk_kwargs) -> list[Disk]:
    """Convenience: ``count`` identical disks named ``<name>.dN``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [Disk(sim, capacity, name=f"{name}.d{i}", **disk_kwargs)
            for i in range(count)]
