"""Integration tests for the assembled NetStorageSystem."""

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.core import format_table
from repro.fs import CRITICAL, FilePolicy
from repro.sim.events import ConditionError
from repro.sim.units import kib, mib


def make_system(sim, **overrides):
    defaults = dict(blade_count=4, disk_count=12, replication=2,
                    disk_capacity=mib(64), cache_bytes_per_blade=mib(8))
    defaults.update(overrides)
    system = NetStorageSystem(sim, SystemConfig(**defaults))
    system.start()
    return system


class TestConfig:
    def test_defaults_valid(self):
        SystemConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(blade_count=0)
        with pytest.raises(ValueError):
            SystemConfig(blade_count=2, replication=3)
        with pytest.raises(ValueError):
            SystemConfig(disk_count=3, data_per_stripe=4)
        with pytest.raises(ValueError):
            SystemConfig(block_size=0)


class TestDataPath:
    def test_write_then_read_roundtrip(self):
        sim = Simulator()
        system = make_system(sim)
        system.create("/data/run1.h5")

        def client():
            yield system.write("/data/run1.h5", 0, mib(1))
            got = yield system.read("/data/run1.h5", 0, mib(1))
            return got

        p = sim.process(client())
        sim.run(until=p)
        assert p.value == mib(1)
        # Written blocks were re-read from cache, not disk.
        assert system.cache.metrics.counter("read.local_hit").value + \
            system.cache.metrics.counter("read.remote_hit").value > 0

    def test_write_absorbs_with_replication(self):
        sim = Simulator()
        system = make_system(sim, replication=3)
        system.create("/f", policy=FilePolicy(write_fault_tolerance=3))

        def client():
            yield system.write("/f", 0, kib(256))

        p = sim.process(client())
        sim.run(until=p)
        placed = system.cache.metrics.counter("write.replicas_placed").value
        assert placed == 2 * 4  # 4 blocks, 2 extra copies each

    def test_read_of_missing_file_fails(self):
        sim = Simulator()
        system = make_system(sim)
        caught = []

        def client():
            try:
                yield system.read("/ghost", 0, kib(64))
            except Exception:
                caught.append(True)

        sim.process(client())
        sim.run()
        assert caught == [True]

    def test_policy_clamped_by_admin_limits(self):
        from repro.fs import PolicyLimits
        sim = Simulator()
        system = make_system(
            sim, policy_limits=PolicyLimits(max_write_fault_tolerance=2))
        inode = system.create("/f", policy=CRITICAL)
        assert inode.policy.write_fault_tolerance == 2

    def test_io_spreads_across_blades(self):
        sim = Simulator()
        system = make_system(sim)
        system.create("/big")

        def client():
            yield system.write("/big", 0, mib(2))  # 32 blocks over 4 blades

        p = sim.process(client())
        sim.run(until=p)
        assert system.cluster.balancer.imbalance() < 1.3

    def test_empty_io_completes(self):
        sim = Simulator()
        system = make_system(sim)
        system.create("/f")

        def client():
            got = yield system.read("/f", 0, 0)
            return got

        p = sim.process(client())
        sim.run(until=p)
        assert p.value == 0


class TestFailureIntegration:
    def test_blade_failure_routes_around_and_keeps_data(self):
        sim = Simulator()
        system = make_system(sim, replication=2)
        system.create("/f")

        def client():
            yield system.write("/f", 0, mib(1))
            system.cluster.blade(0).fail()
            # Detection delay passes; cache salvage runs.
            yield sim.timeout(1.0)
            got = yield system.read("/f", 0, mib(1))
            return got

        p = sim.process(client())
        sim.run(until=p)
        assert p.value == mib(1)
        assert system.cache.lost_dirty_blocks == []

    def test_unreplicated_writes_lost_on_blade_failure(self):
        sim = Simulator()
        system = make_system(sim, replication=1)
        system.create("/f", policy=FilePolicy(write_fault_tolerance=1))

        def client():
            yield system.write("/f", 0, mib(1))
            # Kill every blade that owns dirty data before destage.
            system.cluster.blade(0).fail()
            yield sim.timeout(1.0)

        sim.process(client())
        sim.run(until=5.0)
        report = system.report()
        # blade 0 held some of the 16 dirty blocks; those are gone.
        assert report["cache.lost_dirty_blocks"] > 0

    def test_bug_in_a_cache_op_crashes_and_is_not_a_failed_op(
            self, monkeypatch):
        # "Failed" means a fault fired.  A plain error under the client's
        # barrier is a model bug: it crashes the run and is not counted.
        sim = Simulator()
        system = make_system(sim, observability=True)
        system.create("/f")

        def buggy_write(*_args, **_kwargs):
            op = sim.event()
            op.fail(RuntimeError("model bug"))
            return op

        monkeypatch.setattr(system.cache, "write", buggy_write)

        def client():
            yield system.write("/f", 0, mib(1))

        sim.process(client())
        with pytest.raises(ConditionError) as info:
            sim.run(until=10.0)
        assert isinstance(info.value.__cause__, RuntimeError)
        failed = system.obs.series.get("client.ops_failed", op="write")
        assert failed.total_count == 0

    def test_disk_failure_triggers_distributed_rebuild(self):
        sim = Simulator()
        system = make_system(sim)
        job = system.fail_disk_and_rebuild(0)
        sim.run(until=300.0)
        assert job.done
        assert job.progress == 1.0

    def test_report_snapshot_keys(self):
        sim = Simulator()
        system = make_system(sim)
        report = system.report()
        for key in ("cluster.availability", "cluster.live_blades",
                    "balancer.imbalance", "pfs.mapped_bytes"):
            assert key in report


class TestReportFormatting:
    def test_format_table(self):
        table = format_table(["blades", "Gb/s"], [[1, 4.05], [4, 8.48]],
                             title="E1")
        assert "blades" in table
        assert "8.48" in table
        assert table.startswith("E1")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
