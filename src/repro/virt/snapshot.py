"""Point-in-time snapshots via copy-on-write page sharing (§2.4, §7.2).

"The system would also provide support for snap shot copies of data.  The
copy could then be accessed as an alternate virtual disk."  A snapshot
freezes the DMSD's page table, bumping reference counts; subsequent
writes to the live device copy-on-write, so snapshot creation is O(mapped
pages) of metadata and zero data movement.
"""

from __future__ import annotations

from .allocator import Allocator, PageRef
from .dmsd import DemandMappedDevice, DmsdError


class Snapshot:
    """A read-only point-in-time image of a DMSD."""

    def __init__(self, source: DemandMappedDevice, name: str,
                 created_at: float = 0.0) -> None:
        self.name = name
        self.source_name = source.name
        self.virtual_size = source.virtual_size
        self.page_size = source.page_size
        self.created_at = created_at
        self.allocator: Allocator = source.allocator
        self._table: dict[int, PageRef] = source.page_table_copy()
        self.deleted = False

    @property
    def mapped_bytes(self) -> int:
        return len(self._table) * self.page_size

    def unique_bytes(self) -> int:
        """Bytes held *only* by this snapshot (diverged from the source)."""
        return sum(self.page_size for ref in self._table.values()
                   if self.allocator.refcount(ref) == 1)

    def read(self, offset: int, nbytes: int) -> list[PageRef | None]:
        """Physical pages as of snapshot time; ``None`` marks a zero page."""
        self._check_range(offset, nbytes)
        first = offset // self.page_size
        last = (offset + max(nbytes, 1) - 1) // self.page_size
        return [self._table.get(i) for i in range(first, last + 1)]

    def delete(self) -> None:
        """Release the snapshot's page references (COW pages may free)."""
        if self.deleted:
            raise DmsdError(f"snapshot {self.name!r} already deleted")
        for ref in self._table.values():
            self.allocator.decref(ref)
        self._table.clear()
        self.deleted = True

    def restore_into(self, target: DemandMappedDevice) -> None:
        """SnapRestore-style rollback: target adopts the snapshot's view."""
        if target.allocator is not self.allocator:
            raise DmsdError("snapshot and target use different allocators")
        if target.virtual_size != self.virtual_size:
            raise DmsdError("snapshot/target size mismatch")
        if self.deleted:
            raise DmsdError(f"snapshot {self.name!r} was deleted")
        # Drop the target's current pages, then share the snapshot's.
        for ref in target._table.values():
            self.allocator.decref(ref)
        target._table = dict(self._table)
        for ref in self._table.values():
            self.allocator.incref(ref)

    def _check_range(self, offset: int, nbytes: int) -> None:
        if self.deleted:
            raise DmsdError(f"snapshot {self.name!r} was deleted")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.virtual_size:
            raise DmsdError("range outside snapshot")


def take_snapshot(source: DemandMappedDevice, name: str,
                  now: float = 0.0) -> Snapshot:
    """Create a point-in-time copy of ``source`` named ``name``."""
    return Snapshot(source, name, created_at=now)
