"""Unit + property tests for DMSDs and snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.virt import (
    MAX_DMSD_BYTES,
    AllocationError,
    Allocator,
    DemandMappedDevice,
    DmsdError,
    StoragePool,
    take_snapshot,
)

PAGE = 1024


def make_allocator(pages=64):
    return Allocator([StoragePool("p", pages * PAGE, PAGE)])


class TestDmsd:
    def test_huge_virtual_size_consumes_nothing(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", int(1e18), alloc)  # an exabyte
        assert dmsd.mapped_bytes == 0
        assert alloc.used_bytes == 0

    def test_size_ceiling_is_1_5_yottabytes(self):
        alloc = make_allocator()
        DemandMappedDevice("ok", MAX_DMSD_BYTES, alloc)
        with pytest.raises(ValueError):
            DemandMappedDevice("big", MAX_DMSD_BYTES + 1, alloc)
        with pytest.raises(ValueError):
            DemandMappedDevice("zero", 0, alloc)

    def test_write_maps_on_demand(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 10)
        assert dmsd.mapped_pages == 1
        dmsd.write(5 * PAGE, 2 * PAGE)
        assert dmsd.mapped_pages == 3
        assert alloc.used_bytes == 3 * PAGE

    def test_rewrite_does_not_reallocate(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        first = dmsd.write(0, 10)
        second = dmsd.write(0, 10)
        assert first == second
        assert dmsd.pages_allocated_total == 1

    def test_read_of_unwritten_is_zero_page(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        assert dmsd.read(0, PAGE) == [None]
        dmsd.write(0, 1)
        assert dmsd.read(0, PAGE)[0] is not None

    def test_unmap_frees_full_pages_only(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 3 * PAGE)
        # Range covers page 1 fully, pages 0 and 2 partially.
        freed = dmsd.unmap(PAGE // 2, 2 * PAGE)
        assert freed == 1
        assert dmsd.mapped_pages == 2
        assert alloc.used_bytes == 2 * PAGE

    def test_out_of_range_rejected(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 10 * PAGE, alloc)
        with pytest.raises(DmsdError):
            dmsd.write(10 * PAGE, 1)
        with pytest.raises(DmsdError):
            dmsd.read(-1, 5)

    def test_delete_returns_capacity(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 5 * PAGE)
        dmsd.delete()
        assert alloc.used_bytes == 0
        with pytest.raises(DmsdError):
            dmsd.write(0, 1)

    def test_utilization(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 10 * PAGE, alloc)
        dmsd.write(0, 5 * PAGE)
        assert dmsd.utilization() == pytest.approx(0.5)

    def test_exhaustion_raises(self):
        alloc = make_allocator(pages=2)
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 2 * PAGE)
        with pytest.raises(AllocationError):
            dmsd.write(50 * PAGE, 1)


class TestSnapshot:
    def test_snapshot_shares_pages(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 4 * PAGE)
        snap = take_snapshot(dmsd, "s1")
        # No extra space consumed at snapshot time.
        assert alloc.used_bytes == 4 * PAGE
        assert snap.mapped_bytes == 4 * PAGE

    def test_write_after_snapshot_cows(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 2 * PAGE)
        snap = take_snapshot(dmsd, "s1")
        before = dmsd.read(0, PAGE)[0]
        dmsd.write(0, PAGE)
        after = dmsd.read(0, PAGE)[0]
        assert before != after            # live device moved to a new page
        assert snap.read(0, PAGE)[0] == before  # snapshot still sees old
        assert dmsd.cow_copies == 1
        assert alloc.used_bytes == 3 * PAGE

    def test_snapshot_delete_releases_shares(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 2 * PAGE)
        snap = take_snapshot(dmsd, "s1")
        dmsd.write(0, PAGE)  # COW → 3 pages
        snap.delete()
        # Old page 0 (held only by snapshot) is freed.
        assert alloc.used_bytes == 2 * PAGE
        with pytest.raises(DmsdError):
            snap.read(0, 1)
        with pytest.raises(DmsdError):
            snap.delete()

    def test_restore_rolls_back(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, PAGE)
        original = dmsd.read(0, PAGE)[0]
        snap = take_snapshot(dmsd, "s1")
        dmsd.write(0, PAGE)  # diverge
        dmsd.write(5 * PAGE, PAGE)  # new data not in snapshot
        snap.restore_into(dmsd)
        assert dmsd.read(0, PAGE)[0] == original
        assert dmsd.read(5 * PAGE, PAGE) == [None]

    def test_unique_bytes_tracks_divergence(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, 2 * PAGE)
        snap = take_snapshot(dmsd, "s1")
        assert snap.unique_bytes() == 0
        dmsd.write(0, PAGE)
        assert snap.unique_bytes() == PAGE

    def test_multiple_snapshots(self):
        alloc = make_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc)
        dmsd.write(0, PAGE)
        s1 = take_snapshot(dmsd, "s1")
        dmsd.write(0, PAGE)
        s2 = take_snapshot(dmsd, "s2")
        dmsd.write(0, PAGE)
        views = {s1.read(0, 1)[0], s2.read(0, 1)[0], dmsd.read(0, 1)[0]}
        assert len(views) == 3  # three distinct page versions


@settings(max_examples=40)
@given(st.lists(st.tuples(st.sampled_from(["write", "unmap", "snap", "delsnap"]),
                          st.integers(0, 19)), max_size=60))
def test_property_space_conservation_under_snapshot_churn(ops):
    """Pool usage always equals the union of pages referenced by the live
    device and all snapshots; nothing leaks, nothing double-frees."""
    alloc = make_allocator(pages=256)
    dmsd = DemandMappedDevice("d", 20 * PAGE, alloc)
    snaps = []
    for op, page in ops:
        if op == "write":
            dmsd.write(page * PAGE, PAGE)
        elif op == "unmap":
            dmsd.unmap(page * PAGE, PAGE)
        elif op == "snap":
            snaps.append(take_snapshot(dmsd, f"s{len(snaps)}"))
        elif op == "delsnap" and snaps:
            snaps.pop().delete()
        referenced = set(dmsd._table.values())
        for s in snaps:
            referenced |= set(s._table.values())
        assert alloc.used_bytes == len(referenced) * PAGE
    for s in snaps:
        s.delete()
    dmsd.delete()
    assert alloc.used_bytes == 0
