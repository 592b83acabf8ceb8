"""Unit tests for page migration (remap) and automated policy admin."""

import pytest

from repro.core import AutoPolicyEngine, idle_demotion_rule
from repro.fs import CRITICAL, ParallelFileSystem, ReplicationMode
from repro.sim import Simulator
from repro.virt import (
    Allocator,
    DemandMappedDevice,
    PageMigrator,
    StoragePool,
    take_snapshot,
)

PAGE = 4096


def two_tier_allocator(fast_pages=32, slow_pages=64):
    return Allocator([
        StoragePool("fast", fast_pages * PAGE, PAGE, tier="fc"),
        StoragePool("slow", slow_pages * PAGE, PAGE, tier="legacy"),
    ])


class TestPageMigrator:
    def test_migrate_page_updates_map_and_frees_old(self):
        alloc = two_tier_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc, tier="fc")
        dmsd.write(0, PAGE)
        old_ref = dmsd.read(0, 1)[0]
        PageMigrator(alloc).evacuate_pool("fast", [dmsd])
        new_ref = dmsd.read(0, 1)[0]
        assert new_ref.pool == "slow"
        assert alloc.refcount(old_ref) == 0
        assert alloc.pools["fast"].used_pages == 0

    def test_unmapped_or_already_there_skipped(self):
        alloc = two_tier_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc, tier="legacy")
        migrator = PageMigrator(alloc)
        assert migrator.evacuate_pool("fast", [dmsd]).moved_pages == 0
        dmsd.write(0, PAGE)
        assert migrator.evacuate_pool("fast", [dmsd]).moved_pages == 0

    def test_snapshot_shared_pages_left_in_place(self):
        alloc = two_tier_allocator()
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc, tier="fc")
        dmsd.write(0, 2 * PAGE)
        snap = take_snapshot(dmsd, "s")
        migrator = PageMigrator(alloc)
        report = migrator.evacuate_pool("fast", [dmsd])
        assert report.moved_pages == 0
        assert report.skipped_shared == 2
        snap.delete()
        report = migrator.evacuate_pool("fast", [dmsd])
        assert report.moved_pages == 2
        assert report.by_target_pool == {"slow": 2}

    def test_out_of_space_reported(self):
        alloc = Allocator([
            StoragePool("fast", 8 * PAGE, PAGE, tier="fc"),
            StoragePool("tiny", 2 * PAGE, PAGE, tier="legacy"),
        ])
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc, tier="fc")
        dmsd.write(0, 4 * PAGE)
        report = PageMigrator(alloc).evacuate_pool("fast", [dmsd])
        assert report.moved_pages == 2
        assert report.skipped_no_space == 2

    def test_evacuate_pool_for_decommissioning(self):
        alloc = two_tier_allocator()
        a = DemandMappedDevice("a", 100 * PAGE, alloc, tier="legacy")
        b = DemandMappedDevice("b", 100 * PAGE, alloc, tier="legacy")
        a.write(0, 3 * PAGE)
        b.write(0, 2 * PAGE)
        report = PageMigrator(alloc).evacuate_pool("slow", [a, b])
        assert report.moved_pages == 5
        assert report.moved_bytes == 5 * PAGE
        assert alloc.pools["slow"].used_pages == 0
        # Now the array can actually leave the aggregate.
        from repro.virt import evacuate_pool
        assert evacuate_pool(alloc, "slow") == 0

    def test_evacuate_validation(self):
        alloc = two_tier_allocator()
        migrator = PageMigrator(alloc)
        with pytest.raises(ValueError):
            migrator.evacuate_pool("ghost", [])
        solo = Allocator([StoragePool("only", 8 * PAGE, PAGE)])
        with pytest.raises(ValueError):
            PageMigrator(solo).evacuate_pool("only", [])


class TestAutoPolicyEngine:
    def make_pfs(self):
        alloc = Allocator([StoragePool("p", 512 * PAGE, PAGE)])
        return ParallelFileSystem(alloc, [0, 1], stripe_unit=PAGE)

    def test_idle_demotion_steps_down_replication(self):
        sim = Simulator()
        pfs = self.make_pfs()
        pfs.create("/hot", policy=CRITICAL, now=0.0)
        engine = AutoPolicyEngine(sim, pfs, interval=10.0)
        engine.add_rule(idle_demotion_rule(idle_seconds=100.0))
        engine.start()
        # First pass at the idle threshold (t=100): SYNC -> ASYNC.
        sim.run(until=105.0)
        policy = pfs.open("/hot").policy
        assert policy.replication_mode is ReplicationMode.ASYNC
        assert policy.cache_priority == 0
        assert engine.automation_count() >= 1
        # Subsequent passes decay ASYNC -> NONE.
        sim.run(until=300.0)
        assert pfs.open("/hot").policy.replication_mode is ReplicationMode.NONE

    def test_recently_touched_files_untouched(self):
        sim = Simulator()
        pfs = self.make_pfs()
        pfs.create("/active", policy=CRITICAL, now=0.0)
        engine = AutoPolicyEngine(sim, pfs, interval=10.0)
        engine.add_rule(idle_demotion_rule(idle_seconds=1000.0))

        def toucher():
            while sim.now < 100.0:
                pfs.write("/active", 0, PAGE, now=sim.now)
                yield sim.timeout(20.0)

        sim.process(toucher())
        engine.start()
        sim.run(until=100.0)
        assert pfs.open("/active").policy == CRITICAL
        assert engine.automation_count() == 0

    def test_scratch_sweeper_unlinks_expired(self):
        sim = Simulator()
        pfs = self.make_pfs()
        pfs.namespace.mkdir("/scratch")
        pfs.create("/scratch/old", now=0.0)
        pfs.write("/scratch/old", 0, 4 * PAGE, now=0.0)
        pfs.create("/keep", now=0.0)
        engine = AutoPolicyEngine(sim, pfs, interval=50.0)
        engine.add_scratch_cleanup("/scratch/", max_age=100.0)
        engine.start()
        sim.run(until=200.0)
        assert [path for path, _ in pfs.namespace.walk_files()] == ["/keep"]
        # The freed capacity returned to the pool.
        assert pfs.allocator.used_bytes == 0
        kinds = {a.kind for a in engine.actions}
        assert kinds == {"delete"}

    def test_run_once_idempotent_when_stable(self):
        sim = Simulator()
        pfs = self.make_pfs()
        pfs.create("/f", now=0.0)
        engine = AutoPolicyEngine(sim, pfs)
        engine.add_rule(idle_demotion_rule(0.0))
        first = engine.run_once()
        second = engine.run_once()
        assert second == 0 or second <= first

    def test_validation(self):
        sim = Simulator()
        pfs = self.make_pfs()
        with pytest.raises(ValueError):
            AutoPolicyEngine(sim, pfs, interval=0)
