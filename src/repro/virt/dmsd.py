"""Demand-Mapped Storage Devices (DMSD) — §3's key contribution.

A DMSD "would look like a 'regular' virtual disk with a set of N
contiguous blocks of storage; however, it would typically be much larger
than a regular virtual disk, with a total size of up to 1.5 yottabytes."
A mapping to a real page is created only when a virtual page is first
written; when a page becomes unused the physical page returns to the free
pool.  Copy-on-write sharing with snapshots is supported through the
allocator's reference counts.
"""

from __future__ import annotations

from .allocator import Allocator, PageRef

#: 1.5 yottabytes, the paper's stated DMSD size ceiling.
MAX_DMSD_BYTES = int(1.5e24)


class DmsdError(Exception):
    """Addressing or lifecycle misuse of a demand-mapped device."""


class DemandMappedDevice:
    """A sparse virtual disk: pages materialize on first write.

    Reads of never-written pages are well-defined zero reads (no physical
    I/O needed); :meth:`unmap` (TRIM) returns fully covered pages to the
    pool.  ``mapped_bytes`` is the number actually consumed — what §3 says
    charge-back should reflect.
    """

    def __init__(self, name: str, virtual_size: int, allocator: Allocator,
                 tier: str | None = None, owner: str = "") -> None:
        if not 0 < virtual_size <= MAX_DMSD_BYTES:
            raise ValueError(
                f"virtual size must be in (0, 1.5 YB], got {virtual_size}")
        self.name = name
        self.virtual_size = virtual_size
        self.allocator = allocator
        self.tier = tier
        self.owner = owner
        self.page_size = allocator.page_size
        self._table: dict[int, PageRef] = {}
        self.deleted = False
        self.pages_allocated_total = 0
        self.cow_copies = 0

    # -- accounting -----------------------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        return len(self._table)

    @property
    def mapped_bytes(self) -> int:
        return self.mapped_pages * self.page_size

    @property
    def allocated_bytes(self) -> int:
        """What charge-back bills: actual usage, not virtual size."""
        return self.mapped_bytes

    def utilization(self) -> float:
        """Mapped fraction of the virtual address space."""
        return self.mapped_bytes / self.virtual_size

    # -- data path -------------------------------------------------------------------

    def write(self, offset: int, nbytes: int) -> list[PageRef]:
        """Declare a write; demand-maps untouched pages, COWs shared ones.

        Returns the physical pages backing the range after the write.
        """
        self._check_range(offset, nbytes)
        refs: list[PageRef] = []
        for page_index in self._page_span(offset, nbytes):
            ref = self._table.get(page_index)
            if ref is None:
                ref = self.allocator.allocate(self.tier)
                self._table[page_index] = ref
                self.pages_allocated_total += 1
            elif self.allocator.refcount(ref) > 1:
                # Shared with a snapshot: copy-on-write.
                fresh = self.allocator.allocate(self.tier)
                self.allocator.decref(ref)
                self._table[page_index] = fresh
                self.cow_copies += 1
                ref = fresh
            refs.append(ref)
        return refs

    def read(self, offset: int, nbytes: int) -> list[PageRef | None]:
        """Physical pages under the range; ``None`` marks a zero page."""
        self._check_range(offset, nbytes)
        return [self._table.get(i) for i in self._page_span(offset, nbytes)]

    def unmap(self, offset: int, nbytes: int) -> int:
        """TRIM: release pages *fully* covered by the range.

        Returns the number of pages freed — the capacity reclaim that
        fixed-partition volumes cannot do.
        """
        self._check_range(offset, nbytes)
        first_full = -(-offset // self.page_size)
        last_full = (offset + nbytes) // self.page_size  # exclusive
        freed = 0
        for page_index in range(first_full, last_full):
            ref = self._table.pop(page_index, None)
            if ref is not None:
                self.allocator.decref(ref)
                freed += 1
        return freed

    def delete(self) -> None:
        """Destroy the device, returning every mapped page to the pool."""
        self._check_live()
        for ref in self._table.values():
            self.allocator.decref(ref)
        self._table.clear()
        self.deleted = True

    # -- snapshot support (used by repro.virt.snapshot) ---------------------------------

    def page_table_copy(self) -> dict[int, PageRef]:
        """Frozen view of the mapping, with references taken."""
        for ref in self._table.values():
            self.allocator.incref(ref)
        return dict(self._table)

    # -- helpers ---------------------------------------------------------------------------

    def _page_span(self, offset: int, nbytes: int) -> range:
        first = offset // self.page_size
        last = (offset + max(nbytes, 1) - 1) // self.page_size
        return range(first, last + 1)

    def _check_range(self, offset: int, nbytes: int) -> None:
        self._check_live()
        if offset < 0 or nbytes < 0 or offset + nbytes > self.virtual_size:
            raise DmsdError(
                f"range [{offset}, {offset + nbytes}) outside DMSD of "
                f"{self.virtual_size} bytes")

    def _check_live(self) -> None:
        if self.deleted:
            raise DmsdError(f"DMSD {self.name!r} was deleted")
