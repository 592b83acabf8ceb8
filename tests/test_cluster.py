"""Unit tests for cluster membership, balancing, upgrades, rebuild coordination."""

import pytest

from repro.cluster import (
    ClusterMembership,
    ClusterRebuildCoordinator,
    ControllerCluster,
    LoadBalancer,
    NoBladesAvailableError,
    UpgradeAbortedError,
)
from repro.hardware import ControllerBlade, make_disk_farm
from repro.raid import DeclusteredPool, rebuild_job
from repro.sim import Simulator


def make_membership(sim, n=4, detection_delay=0.5):
    blades = [ControllerBlade(sim, i) for i in range(n)]
    return ClusterMembership(sim, blades, detection_delay=detection_delay)


class TestMembership:
    def test_live_tracking(self):
        sim = Simulator()
        ms = make_membership(sim)
        assert ms.live_ids() == [0, 1, 2, 3]
        ms.blades[1].fail()
        assert ms.live_ids() == [0, 2, 3]
        assert ms.quorum()

    def test_failure_detected_after_delay(self):
        sim = Simulator()
        ms = make_membership(sim, detection_delay=0.5)
        seen = []
        ms.on_change(lambda blade, ev: seen.append((sim.now, blade.blade_id, ev)))

        def killer():
            yield sim.timeout(1.0)
            ms.blades[2].fail()

        sim.process(killer())
        sim.run()
        assert seen == [(1.5, 2, "failed")]

    def test_flapping_blade_not_double_reported(self):
        """A blade that recovers before detection produces no failure event."""
        sim = Simulator()
        ms = make_membership(sim, detection_delay=1.0)
        seen = []
        ms.on_change(lambda blade, ev: seen.append(ev))

        def flapper():
            yield sim.timeout(1.0)
            ms.blades[0].fail()
            yield sim.timeout(0.2)  # repaired before heartbeat timeout
            ms.blades[0].repair()

        sim.process(flapper())
        sim.run()
        assert "failed" not in seen
        assert "joined" in seen

    def test_refailed_blade_reported_once(self):
        """A blade that rejoins and fails again inside the detection delay
        gets one notice, for the second failure."""
        sim = Simulator()
        ms = make_membership(sim, detection_delay=0.5)
        seen = []
        ms.on_change(lambda blade, ev: seen.append((sim.now, blade.blade_id, ev)))

        def flapper():
            yield sim.timeout(0.1)
            ms.blades[0].fail()
            yield sim.timeout(0.1)
            ms.blades[0].repair()
            yield sim.timeout(0.05)
            ms.blades[0].fail()

        sim.process(flapper())
        sim.run()
        assert [e for e in seen if e[2] == "failed"] == [
            (pytest.approx(0.75), 0, "failed")]

    def test_add_blade(self):
        sim = Simulator()
        ms = make_membership(sim, n=2)
        ms.add_blade(ControllerBlade(sim, 5))
        assert 5 in ms.blades
        with pytest.raises(ValueError):
            ms.add_blade(ControllerBlade(sim, 5))

    def test_quorum_loss(self):
        sim = Simulator()
        ms = make_membership(sim, n=3)
        ms.blades[0].fail()
        ms.blades[1].fail()
        assert not ms.quorum()


class TestLoadBalancer:
    def test_picks_least_loaded(self):
        sim = Simulator()
        ms = make_membership(sim, n=3)
        lb = LoadBalancer(ms)
        lb.start(0)
        lb.start(0)
        lb.start(1)
        assert lb.pick() == 2

    def test_skips_failed_blades(self):
        sim = Simulator()
        ms = make_membership(sim, n=2)
        lb = LoadBalancer(ms)
        ms.blades[0].fail()
        for _ in range(5):
            assert lb.pick() == 1

    def test_no_blades_raises(self):
        sim = Simulator()
        ms = make_membership(sim, n=1)
        lb = LoadBalancer(ms)
        ms.blades[0].fail()
        with pytest.raises(NoBladesAvailableError):
            lb.pick()

    def test_track_context(self):
        sim = Simulator()
        ms = make_membership(sim, n=1)
        lb = LoadBalancer(ms)
        with lb.track(0):
            assert lb.in_flight[0] == 1
        assert lb.in_flight[0] == 0
        assert lb.dispatched[0] == 1

    def test_unmatched_finish_rejected(self):
        sim = Simulator()
        lb = LoadBalancer(make_membership(sim, n=1))
        with pytest.raises(RuntimeError):
            lb.finish(0)

    def test_balanced_dispatch_has_low_imbalance(self):
        sim = Simulator()
        ms = make_membership(sim, n=4)
        lb = LoadBalancer(ms)
        for _ in range(100):
            blade = lb.pick()
            lb.start(blade)
            lb.finish(blade)
        assert lb.imbalance() < 1.2

    def test_empty_imbalance_is_one(self):
        sim = Simulator()
        lb = LoadBalancer(make_membership(sim, n=4))
        assert lb.imbalance() == 1.0


class TestControllerCluster:
    def test_scale_out_adds_capacity(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=2)
        fc_before = cluster.aggregate_fc_bandwidth()
        cache_before = cluster.total_cache_bytes()
        cluster.scale_out(2)
        assert cluster.aggregate_fc_bandwidth() == 2 * fc_before
        assert cluster.total_cache_bytes() == 2 * cache_before
        assert cluster.membership.size == 4

    def test_availability_drops_only_when_all_dead(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=2)

        def scenario():
            yield sim.timeout(10.0)
            cluster.blade(0).fail()
            yield sim.timeout(10.0)  # one blade still up: available
            cluster.blade(1).fail()
            yield sim.timeout(10.0)  # total outage
            cluster.blade(0).repair()
            yield sim.timeout(10.0)

        sim.process(scenario())
        sim.run()
        # ~10s outage (plus detection delay) out of ~40s.
        assert 0.6 < cluster.service_availability() < 0.8

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ControllerCluster(sim, blade_count=0)


class TestRollingUpgrade:
    def test_upgrades_all_blades_without_total_outage(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=3)
        upgrade = cluster.rolling_upgrade(duration_per_blade=5.0, min_live=2)
        proc = upgrade.start()
        result = sim.run(until=proc)
        assert result == [0, 1, 2]
        # At no instant were all blades down.
        assert cluster.service_availability() == pytest.approx(1.0)

    def test_waits_for_drain(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=2)
        upgrade = cluster.rolling_upgrade(duration_per_blade=1.0)
        # Simulate an in-flight op on blade 0 finishing at t=3.
        cluster.balancer.start(0)

        def finisher():
            yield sim.timeout(3.0)
            cluster.balancer.finish(0)

        sim.process(finisher())
        proc = upgrade.start()
        sim.run(until=proc)
        # Blade 0 went down only after its work drained at t=3.
        down_times = {bid: t for t, bid, ev in upgrade.log if ev == "down"}
        assert down_times[0] >= 3.0

    def test_aborts_below_min_live(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=2)
        cluster.blade(1).fail()
        upgrade = cluster.rolling_upgrade(min_live=2)
        proc = upgrade.start()
        with pytest.raises(UpgradeAbortedError):
            sim.run(until=proc)

    def test_min_live_validation(self):
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=2)
        with pytest.raises(ValueError):
            cluster.rolling_upgrade(min_live=0)


class TestRebuildCoordination:
    CHUNK = 64 * 1024

    def make_pool(self, sim):
        disks = make_disk_farm(sim, 12, 64 * self.CHUNK)
        pool = DeclusteredPool(sim, disks, data_per_stripe=3,
                               chunk_size=self.CHUNK)
        pool.mark_failed(0)
        return pool

    def test_one_worker_per_blade(self):
        sim = Simulator()
        ms = make_membership(sim, n=4)
        coord = ClusterRebuildCoordinator(sim, ms)
        job = rebuild_job(self.make_pool(sim), 0, region=8)
        workers = coord.start(job)
        assert len(workers) == 4
        sim.run()
        assert job.done

    def test_blade_failure_respawns_worker_elsewhere(self):
        sim = Simulator()
        ms = make_membership(sim, n=3, detection_delay=0.01)
        coord = ClusterRebuildCoordinator(sim, ms)
        job = rebuild_job(self.make_pool(sim), 0, region=4)
        coord.start(job)

        def killer():
            yield sim.timeout(0.05)
            ms.blades[0].fail()

        sim.process(killer())
        sim.run()
        assert job.done
        assert coord.respawned == 1

    def test_double_start_rejected(self):
        sim = Simulator()
        ms = make_membership(sim, n=2)
        coord = ClusterRebuildCoordinator(sim, ms)
        pool = self.make_pool(sim)
        job = rebuild_job(pool, 0, region=8)
        coord.start(job)
        with pytest.raises(RuntimeError):
            coord.start(rebuild_job(pool, 0, region=8))
