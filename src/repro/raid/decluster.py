"""Parity-declustered placement over a wide disk farm.

The paper's architecture has no one-to-one controller↔disk binding: "any
controller blade would be capable of reading from, or writing to, any
physical disk block" (§2.3), and rebuilds are "distributed, in a fault
tolerant fashion, across the controllers within the cluster" (§6.3).  The
placement that makes distributed rebuild *effective* is declustering: each
parity stripe picks a pseudo-random subset of all pool disks, so the peers
of a failed disk's chunks — and the spare space rebuilt chunks land on —
are spread over the whole farm.  Rebuild work then parallelizes across
controllers with little disk contention, unlike a narrow RAID group.

Placement is a deterministic multiplicative hash of the stripe number, so
any blade can compute any address with no metadata lookup — the same
property CRUSH-style placement gives real systems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hardware.disk import Disk
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

_HASH_A = 2654435761  # Knuth's multiplicative constant
_HASH_B = 0x9E3779B1


def _mix(*values: int) -> int:
    acc = 0x811C9DC5
    for v in values:
        acc ^= (v * _HASH_A) & 0xFFFFFFFF
        acc = (acc * _HASH_B) & 0xFFFFFFFF
        acc ^= acc >> 15
    return acc


class DeclusteredPool:
    """A pool of disks with hash-placed parity stripes (k data + 1 parity).

    Capacity bookkeeping is simplified: each disk contributes
    ``capacity // chunk_size`` chunk slots; a stripe's chunk lands at a
    hash-derived slot on each member disk, which spreads rebuild traffic
    spatially as well as across spindles.
    """

    #: Component of a rebuild job's spans and log records.
    rebuild_component = "raid.drebuild"

    def __init__(self, sim: "Simulator", disks: list[Disk],
                 data_per_stripe: int = 4, chunk_size: int = 64 * 1024,
                 name: str = "dpool") -> None:
        width = data_per_stripe + 1
        if len(disks) < width + 1:
            raise ValueError(
                f"declustering needs more disks ({len(disks)}) than the "
                f"stripe width ({width}) plus a spare")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        self.sim = sim
        self.disks = disks
        self.data_per_stripe = data_per_stripe
        self.chunk_size = chunk_size
        self.name = name
        self.failed: set[int] = set()
        slots_per_disk = disks[0].capacity // chunk_size
        # Leave ~20% of slots as distributed spare space for rebuilds.
        usable_slots = int(len(disks) * slots_per_disk * 0.8)
        self.stripe_count = usable_slots // width
        self._slots_per_disk = slots_per_disk

    @property
    def capacity(self) -> int:
        """Logical bytes addressable by clients."""
        return self.stripe_count * self.data_per_stripe * self.chunk_size

    # -- placement ---------------------------------------------------------------

    def stripe_members(self, stripe: int) -> list[int]:
        """The (k+1) distinct disks of a stripe; last member holds parity."""
        if not 0 <= stripe < self.stripe_count:
            raise ValueError(f"stripe {stripe} out of range")
        n = len(self.disks)
        members: list[int] = []
        probe = 0
        while len(members) < self.data_per_stripe + 1:
            candidate = _mix(stripe, len(members), probe) % n
            if candidate not in members:
                members.append(candidate)
            probe += 1
        return members

    def chunk_slot(self, stripe: int, disk: int) -> int:
        """Byte offset of this stripe's chunk on ``disk``."""
        slot = _mix(stripe, disk, 7) % self._slots_per_disk
        return slot * self.chunk_size

    def spare_target(self, stripe: int, failed_disk: int) -> int:
        """Surviving disk that receives the rebuilt chunk of a stripe."""
        members = set(self.stripe_members(stripe))
        n = len(self.disks)
        probe = 0
        while True:
            candidate = _mix(stripe, failed_disk, 13, probe) % n
            if candidate not in members and candidate not in self.failed:
                return candidate
            probe += 1
            if probe > 4 * n:
                raise RuntimeError("no surviving spare target found")

    def stripes_on_disk(self, disk: int) -> list[int]:
        """Every stripe with a chunk on ``disk`` (what a rebuild must redo)."""
        return [s for s in range(self.stripe_count)
                if disk in self.stripe_members(s)]

    def rebuild_stripes(self, disk: int) -> list[int]:
        """The stripes a rebuild of failed ``disk`` must redo."""
        if disk not in self.failed:
            raise ValueError("mark the disk failed before rebuilding")
        return self.stripes_on_disk(disk)

    def rebuild_stripe(self, disk: int, stripe: int, priority: float):
        """Region-job step: read the stripe's surviving peers, write the
        rebuilt chunk to a distributed spare."""
        reads = []
        for peer in self.stripe_members(stripe):
            if peer == disk or peer in self.failed:
                continue
            reads.append(self.disks[peer].read(
                self.chunk_slot(stripe, peer), self.chunk_size, priority))
        barrier = self.sim.all_of(reads)
        done = Event(self.sim)
        spare = self.spare_target(stripe, disk)

        def after_reads(ev: Event) -> None:
            if not ev.ok:
                done.fail(ev.value)
                return
            self.disks[spare].write(
                self.chunk_slot(stripe, spare), self.chunk_size,
                priority).add_callback(
                    lambda w: done.succeed() if w.ok else done.fail(w.value))

        barrier.add_callback(after_reads)
        yield done

    # -- health --------------------------------------------------------------------

    def mark_failed(self, disk_index: int) -> None:
        """Record a disk failure; subsequent I/O reconstructs around it."""
        self.failed.add(disk_index)
        self.disks[disk_index].fail()

    # -- logical I/O (timing) ---------------------------------------------------------

    def read(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Read a logical range; chunks map to hash-placed disk slots."""
        return self._io(offset, nbytes, "read", priority)

    def write(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Write a logical range; parity chunk updated per stripe."""
        return self._io(offset, nbytes, "write", priority)

    def _io(self, offset: int, nbytes: int, op: str, priority: float) -> Event:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity:
            raise ValueError("range outside pool capacity")
        events: list[Event] = []
        pos = offset
        end = offset + nbytes
        k = self.data_per_stripe
        while pos < end:
            chunk = pos // self.chunk_size
            intra = pos % self.chunk_size
            take = min(self.chunk_size - intra, end - pos)
            stripe, within = divmod(chunk, k)
            members = self.stripe_members(stripe)
            disk = members[within]
            if disk in self.failed:
                # Reconstruct from surviving peers.
                for peer in members:
                    if peer == disk or peer in self.failed:
                        continue
                    events.append(self.disks[peer].read(
                        self.chunk_slot(stripe, peer), self.chunk_size,
                        priority))
            else:
                slot = self.chunk_slot(stripe, disk)
                io = (self.disks[disk].read if op == "read"
                      else self.disks[disk].write)
                events.append(io(slot + intra, take, priority))
                if op == "write":
                    parity_disk = members[-1]
                    if parity_disk not in self.failed and parity_disk != disk:
                        events.append(self.disks[parity_disk].write(
                            self.chunk_slot(stripe, parity_disk),
                            self.chunk_size, priority))
            pos += take
        if not events:
            done = Event(self.sim)
            done.succeed(0)
            return done
        return self.sim.all_of(events)
