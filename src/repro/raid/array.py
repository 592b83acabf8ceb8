"""RAID array: plan generation and execution against simulated disks.

The array owns a :class:`~repro.raid.layout.RaidLayout` plus member
:class:`~repro.hardware.disk.Disk` objects.  Logical reads/writes become
per-disk I/O plans — including degraded-mode reconstruction reads and
read-modify-write parity updates — executed concurrently, so stripe
parallelism is what the timing model sees.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterable

from ..hardware.disk import Disk
from ..sim.events import Event
from .layout import IoOp, RaidLayout, RaidLevel

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class UnrecoverableArrayError(Exception):
    """More disks failed than the layout's redundancy tolerates."""


def coalesce(ops: Iterable[IoOp]) -> list[IoOp]:
    """Merge adjacent same-disk same-op requests to model disk streaming."""
    per_disk: dict[tuple[int, str], list[IoOp]] = defaultdict(list)
    for op in ops:
        per_disk[(op.disk, op.op)].append(op)
    merged: list[IoOp] = []
    for (disk, kind), group in per_disk.items():
        group.sort(key=lambda o: o.offset)
        current = group[0]
        for nxt in group[1:]:
            if nxt.offset <= current.offset + current.nbytes:
                end = max(current.offset + current.nbytes,
                          nxt.offset + nxt.nbytes)
                current = IoOp(disk, current.offset, end - current.offset, kind)
            else:
                merged.append(current)
                current = nxt
        merged.append(current)
    return merged


class RaidArray:
    """A redundancy group over member disks.

    All policy lives in the plan generators (`read_plan` / `write_plan`);
    execution just fans the plan out to disks and waits on the barrier.
    """

    #: Component of a rebuild job's spans and log records.
    rebuild_component = "raid.rebuild"

    def __init__(self, sim: "Simulator", disks: list[Disk], level: RaidLevel,
                 chunk_size: int = 64 * 1024, name: str = "array") -> None:
        if not disks:
            raise ValueError("array needs at least one disk")
        capacities = {d.capacity for d in disks}
        if len(capacities) != 1:
            raise ValueError("all member disks must have equal capacity")
        self.sim = sim
        self.disks = disks
        self.layout = RaidLayout(level, len(disks), chunk_size,
                                 disk_capacity=disks[0].capacity)
        self.name = name
        self.failed: set[int] = set()
        self._mirror_rr = 0

    # -- capacity / health --------------------------------------------------------

    @property
    def level(self) -> RaidLevel:
        return self.layout.level

    @property
    def capacity(self) -> int:
        return self.layout.usable_capacity()

    @property
    def is_degraded(self) -> bool:
        return bool(self.failed)

    @property
    def is_failed(self) -> bool:
        """True when data loss has occurred (redundancy exceeded)."""
        if self.level is RaidLevel.RAID10:
            # RAID10 fails only if both halves of some mirror pair die.
            pairs = self.layout.disk_count // 2
            return any({2 * p, 2 * p + 1} <= self.failed for p in range(pairs))
        return len(self.failed) > self.layout.redundancy

    def mark_failed(self, disk_index: int) -> None:
        """Record a member-disk failure; plans adapt to degraded mode."""
        self._check_index(disk_index)
        self.failed.add(disk_index)
        self.disks[disk_index].fail()

    def mark_replaced(self, disk_index: int) -> None:
        """A fresh drive was swapped in; contents must be rebuilt."""
        self._check_index(disk_index)
        self.failed.discard(disk_index)
        self.disks[disk_index].repair()

    def _check_index(self, disk_index: int) -> None:
        if not 0 <= disk_index < len(self.disks):
            raise ValueError(f"disk index {disk_index} out of range")

    # -- plan generation ------------------------------------------------------------

    def read_plan(self, offset: int, nbytes: int) -> list[IoOp]:
        """Disk ops to service a logical read, honoring degraded mode."""
        self._check_range(offset, nbytes)
        if self.is_failed:
            raise UnrecoverableArrayError(f"{self.name}: data loss state")
        layout = self.layout
        ops: list[IoOp] = []
        for chunk, intra, length in layout.chunks_for_range(offset, nbytes):
            addr = layout.chunk_address(chunk)
            source = addr.disk
            if self.level in (RaidLevel.RAID1, RaidLevel.RAID10):
                source = self._pick_mirror(addr.disk, addr.parity_disks)
                ops.append(IoOp(source, addr.offset + intra, length, "read"))
                continue
            if source not in self.failed:
                ops.append(IoOp(source, addr.offset + intra, length, "read"))
                continue
            if self.level is RaidLevel.RAID0:
                raise UnrecoverableArrayError(
                    f"{self.name}: raid0 lost disk {source}")
            # Parity reconstruction: read every surviving stripe member.
            data_disks, parity = layout.stripe_members(addr.stripe)
            for member in (*data_disks, *parity):
                if member == source or member in self.failed:
                    continue
                ops.append(IoOp(member, addr.offset, layout.chunk_size, "read"))
        return coalesce(ops)

    def write_plan(self, offset: int, nbytes: int) -> list[IoOp]:
        """Disk ops to service a logical write (parity updates included)."""
        self._check_range(offset, nbytes)
        if self.is_failed:
            raise UnrecoverableArrayError(f"{self.name}: data loss state")
        layout = self.layout
        level = self.level
        ops: list[IoOp] = []
        if level is RaidLevel.RAID0:
            for chunk, intra, length in layout.chunks_for_range(offset, nbytes):
                addr = layout.chunk_address(chunk)
                if addr.disk in self.failed:
                    raise UnrecoverableArrayError(
                        f"{self.name}: raid0 lost disk {addr.disk}")
                ops.append(IoOp(addr.disk, addr.offset + intra, length, "write"))
            return coalesce(ops)
        if level in (RaidLevel.RAID1, RaidLevel.RAID10):
            for chunk, intra, length in layout.chunks_for_range(offset, nbytes):
                addr = layout.chunk_address(chunk)
                for member in (addr.disk, *addr.parity_disks):
                    if member in self.failed:
                        continue
                    ops.append(IoOp(member, addr.offset + intra, length, "write"))
            return coalesce(ops)
        # Rotating parity: group by stripe to find full-stripe writes.
        by_stripe: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for piece in layout.chunks_for_range(offset, nbytes):
            stripe = piece[0] // layout.data_disks_per_stripe
            by_stripe[stripe].append(piece)
        for stripe, pieces in sorted(by_stripe.items()):
            ops.extend(self._parity_stripe_write(stripe, pieces))
        return coalesce(ops)

    def _parity_stripe_write(self, stripe: int,
                             pieces: list[tuple[int, int, int]]) -> list[IoOp]:
        layout = self.layout
        data_disks, parity = layout.stripe_members(stripe)
        stripe_offset = stripe * layout.chunk_size
        written = sum(length for _c, _i, length in pieces)
        full_stripe = written == layout.stripe_data_bytes
        ops: list[IoOp] = []
        # New data lands on its home disks (skipping failed members).
        for chunk, intra, length in pieces:
            addr = layout.chunk_address(chunk)
            if addr.disk not in self.failed:
                ops.append(IoOp(addr.disk, addr.offset + intra, length, "write"))
        live_parity = [p for p in parity if p not in self.failed]
        if full_stripe:
            # Parity computed from the new data alone: no reads needed.
            for p in live_parity:
                ops.append(IoOp(p, stripe_offset, layout.chunk_size, "write"))
            return ops
        touched = {layout.chunk_address(c).disk for c, _i, _l in pieces}
        failed_touched = touched & self.failed
        if not live_parity and not failed_touched:
            # Parity member(s) are gone but all data disks live: plain writes.
            return ops
        if failed_touched or any(d in self.failed for d in data_disks):
            # Degraded stripe: reconstruct-write — read all surviving data
            # not being overwritten, then write new data + parity.
            for member in data_disks:
                if member in self.failed or member in touched:
                    continue
                ops.append(IoOp(member, stripe_offset, layout.chunk_size, "read"))
        else:
            # Read-modify-write: read old data under the write + old parity.
            for chunk, intra, length in pieces:
                addr = layout.chunk_address(chunk)
                ops.append(IoOp(addr.disk, addr.offset + intra, length, "read"))
            for p in live_parity:
                ops.append(IoOp(p, stripe_offset, layout.chunk_size, "read"))
        for p in live_parity:
            ops.append(IoOp(p, stripe_offset, layout.chunk_size, "write"))
        return ops

    def _pick_mirror(self, primary: int, mirrors: tuple[int, ...]) -> int:
        candidates = [d for d in (primary, *mirrors) if d not in self.failed]
        if not candidates:
            raise UnrecoverableArrayError(f"{self.name}: whole mirror set lost")
        choice = candidates[self._mirror_rr % len(candidates)]
        self._mirror_rr += 1
        return choice

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside array of "
                f"{self.capacity} bytes")

    # -- execution --------------------------------------------------------------------

    def execute_plan(self, plan: list[IoOp], priority: float = 0.0) -> Event:
        """Issue every op concurrently; event fires when all complete."""
        if not plan:
            done = Event(self.sim)
            done.succeed(0)
            return done
        events = []
        for op in plan:
            disk = self.disks[op.disk]
            if op.op == "read":
                events.append(disk.read(op.offset, op.nbytes, priority))
            else:
                events.append(disk.write(op.offset, op.nbytes, priority))
        return self.sim.all_of(events)

    def read(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Plan and execute a logical read; event fires when all ops finish."""
        return self.execute_plan(self.read_plan(offset, nbytes), priority)

    def write(self, offset: int, nbytes: int, priority: float = 0.0) -> Event:
        """Plan and execute a logical write (parity updates included)."""
        return self.execute_plan(self.write_plan(offset, nbytes), priority)

    # -- rebuild ------------------------------------------------------------------------

    def rebuild_stripes(self, disk_index: int) -> range:
        """Every stripe: a replaced disk comes back empty."""
        if disk_index in self.failed:
            raise ValueError("replace the disk (mark_replaced) before rebuilding")
        return range(self.disks[0].capacity // self.layout.chunk_size)

    def rebuild_stripe(self, disk_index: int, stripe: int, priority: float):
        """Region-job step: read the surviving members, write the rebuilt
        chunk back to ``disk_index``."""
        layout = self.layout
        chunk = layout.chunk_size
        offset = stripe * chunk
        reads = []
        if layout.level in (RaidLevel.RAID1, RaidLevel.RAID10):
            source = self._mirror_peer(disk_index)
            reads.append(self.disks[source].read(offset, chunk, priority))
        else:
            data_disks, parity = layout.stripe_members(stripe)
            for member in (*data_disks, *parity):
                if member == disk_index or member in self.failed:
                    continue
                reads.append(self.disks[member].read(offset, chunk, priority))
        barrier = self.sim.all_of(reads)
        write = self.sim.event()

        def after_reads(_ev):
            self.disks[disk_index].write(offset, chunk, priority) \
                .add_callback(lambda ev: write.succeed() if ev.ok
                              else write.fail(ev.value))

        barrier.add_callback(lambda ev: after_reads(ev) if ev.ok
                             else write.fail(ev.value))
        yield write

    def _mirror_peer(self, disk_index: int) -> int:
        if self.level is RaidLevel.RAID1:
            candidates = [i for i in range(len(self.disks))
                          if i != disk_index and i not in self.failed]
        else:  # RAID10: partner within the pair
            partner = disk_index ^ 1
            candidates = [partner] if partner not in self.failed else []
        if not candidates:
            raise RuntimeError("no surviving mirror to rebuild from")
        return candidates[0]
