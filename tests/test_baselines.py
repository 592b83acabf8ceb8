"""Unit tests for the traditional-storage baselines."""

import pytest

from repro.baseline import (
    DualControllerArray,
    IslandFarm,
    MirrorSplitReplicator,
    PartitionedCacheArray,
    StorageIsland,
    ThickProvisioner,
    replay_thin,
    replicated_farm_costs,
    shared_pool_costs,
)
from repro.hardware import ControllerBlade
from repro.sim import Simulator
from repro.sim.units import gb, gbps, mib


class TestStorageIsland:
    def test_read_miss_then_hit(self):
        sim = Simulator()
        island = StorageIsland(sim, 0, disks=[], disk_latency=0.008)

        def proc():
            a = yield island.read("k")
            b = yield island.read("k")
            return (a, b)

        p = sim.process(proc())
        sim.run()
        assert p.value == ("disk", "cache")

    def test_requires_disks_or_model(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StorageIsland(sim, 0, disks=[])

    def test_farm_static_placement(self):
        sim = Simulator()
        islands = [StorageIsland(sim, i, disks=[], disk_latency=0.008)
                   for i in range(4)]
        farm = IslandFarm(sim, islands)
        # Placement is deterministic and exclusive.
        home1 = farm.home_of("vol-a")
        home2 = farm.home_of("vol-a")
        assert home1 is home2

    def test_hot_volume_creates_imbalance(self):
        sim = Simulator()
        islands = [StorageIsland(sim, i, disks=[], disk_latency=0.001)
                   for i in range(4)]
        farm = IslandFarm(sim, islands)

        def proc():
            for i in range(100):
                yield farm.read("hot-volume", i % 3)  # one island hammered

        sim.process(proc())
        sim.run()
        # All on one of four islands: static placement cannot spread it.
        assert sorted(i.ops for i in islands) == [0, 0, 0, 100]


class TestDualController:
    def test_first_failure_survivable(self):
        sim = Simulator()
        array = DualControllerArray(sim, active_active=True)

        def proc():
            yield array.write("k1")
            salvaged, lost = array.fail_controller(0)
            return (salvaged, lost)

        p = sim.process(proc())
        sim.run()
        assert p.value == (1, 0)
        assert array.lost_dirty_blocks == []

    def test_second_failure_loses_dirty_data(self):
        sim = Simulator()
        array = DualControllerArray(sim, active_active=True)

        def proc():
            yield array.write("k1")
            yield array.write("k2")
            array.fail_controller(0)
            _s, lost = array.fail_controller(1)
            return lost

        p = sim.process(proc())
        sim.run()
        assert p.value == 2
        assert len(array.lost_dirty_blocks) == 2

    def test_active_passive_failover_outage(self):
        sim = Simulator()
        array = DualControllerArray(sim, active_active=False,
                                    failover_time=30.0)

        def proc():
            yield sim.timeout(10.0)
            array.fail_controller(0)  # active dies: trespass begins
            assert not array.serving
            yield sim.timeout(31.0)
            assert array.serving  # standby took over
            yield sim.timeout(59.0)

        sim.process(proc())
        sim.run()
        # 30s outage in 100s => 70% availability.
        assert array.availability() == pytest.approx(0.7, abs=0.02)

    def test_active_active_no_failover_outage(self):
        sim = Simulator()
        array = DualControllerArray(sim, active_active=True)

        def proc():
            yield sim.timeout(10.0)
            array.fail_controller(0)
            assert array.serving
            yield sim.timeout(90.0)

        sim.process(proc())
        sim.run()
        assert array.availability() == pytest.approx(1.0)

    def test_write_during_failover_rejected(self):
        sim = Simulator()
        array = DualControllerArray(sim, active_active=False)
        caught = []

        def proc():
            array.fail_controller(0)
            try:
                yield array.write("k")
            except RuntimeError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]


class TestThickProvisioning:
    def demands(self):
        return {
            "a": [100, 120, 150, 400, 420],
            "b": [50, 55, 60, 65, 70],
        }

    def test_thick_burns_admin_ops_and_slack(self):
        outcome = ThickProvisioner(initial_headroom=2.0).replay(self.demands())
        assert outcome.admin_operations >= 1  # tenant a's burst forced a resize
        assert outcome.slack_fraction > 0.3
        assert outcome.peak_provisioned > outcome.peak_used

    def test_thin_has_no_admin_ops_or_slack(self):
        outcome = replay_thin(self.demands())
        assert outcome.admin_operations == 0
        assert outcome.slack_fraction == 0.0
        assert outcome.peak_provisioned == outcome.peak_used

    def test_validation(self):
        with pytest.raises(ValueError):
            ThickProvisioner(initial_headroom=0.5)
        with pytest.raises(ValueError):
            ThickProvisioner().replay({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError):
            replay_thin({"a": [1, 2], "b": [1]})


class TestMirrorSplit:
    def test_storage_multiple(self):
        sim = Simulator()
        rep = MirrorSplitReplicator(sim, gb(1), gbps(1), 60.0)
        assert rep.STORAGE_MULTIPLE == 4
        assert rep.wan_bytes_per_period() == gb(1)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MirrorSplitReplicator(sim, 0, gbps(1), 60.0)


class TestPartitionedCache:
    def test_static_home_and_imbalance(self):
        sim = Simulator()
        blades = [ControllerBlade(sim, i, cache_bytes=mib(1))
                  for i in range(4)]
        pc = PartitionedCacheArray(sim, blades,
                                   lambda k, n: sim.timeout(0.005))

        def proc():
            for _ in range(40):
                yield pc.read(("hot", 1))

        sim.process(proc())
        sim.run()
        assert pc.imbalance() == pytest.approx(4.0)

    def test_hit_after_miss(self):
        sim = Simulator()
        blades = [ControllerBlade(sim, 0)]
        pc = PartitionedCacheArray(sim, blades,
                                   lambda k, n: sim.timeout(0.005))

        def proc():
            a = yield pc.read("k")
            b = yield pc.read("k")
            return (a, b)

        p = sim.process(proc())
        sim.run()
        assert p.value == ("disk", "cache")


class TestWebFarm:
    def test_shared_pool_cheaper_and_coherent(self):
        replicated = replicated_farm_costs(8, gb(500), mib(100))
        shared = shared_pool_costs(8, gb(500), mib(100))
        assert shared.storage_bytes < replicated.storage_bytes / 4
        assert shared.update_write_bytes < replicated.update_write_bytes
        assert shared.consistency_window == 0.0
        assert replicated.consistency_window > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            replicated_farm_costs(0, gb(1), mib(1))
        with pytest.raises(ValueError):
            shared_pool_costs(0, gb(1), mib(1))
