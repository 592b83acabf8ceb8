"""Integration tests: geo replication, distributed access, disaster recovery."""

import pytest

from repro.fs import FilePolicy, ReplicationMode
from repro.geo import (
    DisasterRecoveryCoordinator,
    DistributedAccessManager,
    GeoReplicator,
    Site,
    WanNetwork,
)
from repro.sim import FAULT_EXCEPTIONS, Simulator
from repro.sim.units import gbps, mib

SYNC1 = FilePolicy(replication_mode=ReplicationMode.SYNC, replication_sites=1)
ASYNC1 = FilePolicy(replication_mode=ReplicationMode.ASYNC, replication_sites=1)
NONE = FilePolicy()


def ring(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    c = net.add_site(Site(sim, "c", (0.0, 4000.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(1.0))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


class TestGeoReplicator:
    def test_sync_ack_waits_for_remote(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)

        def proc():
            yield rep.write("/f", mib(1))
            return sim.now

        p = sim.process(proc())
        sim.run()
        # Must include at least the one-way latency to site b.
        assert p.value > net.rtt(a, b) / 2
        assert rep.files["/f"].copies == {"a", "b"}

    def test_async_acks_fast_then_drains(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        ack_time = {}

        def proc():
            t0 = sim.now
            yield rep.write("/f", mib(8))
            ack_time["ack"] = sim.now - t0

        sim.process(proc())
        sim.run(until=30.0)
        # Ack did not wait for the WAN: it covers only the local store
        # write (~14.5ms for 8 MiB), not the ~27ms WAN transfer + RTT.
        wan_transfer_time = mib(8) / gbps(2.5)
        assert ack_time["ack"] < wan_transfer_time
        # ...but the backlog eventually drained.
        assert rep.async_backlog[("/f", "b")] == 0
        assert "b" in rep.files["/f"].copies

    @staticmethod
    def _async_pair(gap: float, second: str):
        """Two async 8 MiB writes from ``a``, ``gap`` s apart (the second
        to ``second``), run to quiescence; returns the replicator, the
        copies landed as (path, site, time), and the pumps running when
        the second write was issued."""
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        rep.register("/g", ASYNC1, a)
        landed = []
        rep.on_copy_complete.append(
            lambda path, site: landed.append((path, site, sim.now)))
        pumps_at_second = []

        def client():
            yield rep.write("/f", mib(8))
            yield sim.timeout(gap)
            pumps_at_second.append(set(rep._pump_running))
            yield rep.write(second, mib(8))

        sim.process(client())
        sim.run()
        return sim, rep, landed, pumps_at_second[0]

    def test_idle_pump_parks_and_the_next_write_wakes_it(self):
        # The pump parks as soon as the first copy lands; the write 5 s
        # later starts it again, and nothing is left in the kernel once
        # the second copy lands (no idle polling past the drain).
        sim, rep, landed, pumps = self._async_pair(5.0, "/f")
        assert pumps == set()
        assert [(p, s) for p, s, _t in landed] == [("/f", "b"), ("/f", "b")]
        assert sim.now == pytest.approx(5.0725, abs=1e-4)
        assert sim.now == landed[-1][2]
        assert rep._pump_running == set()
        assert rep.backlog_to("b") == 0

    def test_write_during_a_drain_rides_the_running_pump(self):
        # The second write lands in the backlog while the first chunk is
        # still on the WAN: the running pump picks it up after that chunk
        # and parks only when both copies have landed.
        sim, rep, landed, pumps = self._async_pair(0.02, "/g")
        assert pumps == {"b"}
        assert [(p, s) for p, s, _t in landed] == [("/f", "b"), ("/g", "b")]
        assert landed[0][2] < landed[1][2] == sim.now
        assert rep._pump_running == set()
        assert rep.backlog_to("b") == 0

    def test_sync_latency_grows_with_distance(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        near = FilePolicy(replication_mode=ReplicationMode.SYNC,
                          replication_sites=1)
        far = FilePolicy(replication_mode=ReplicationMode.SYNC,
                         replication_sites=1, min_distance_km=2000.0)
        rep.register("/near", near, a)
        rep.register("/far", far, a)
        latencies = {}

        def proc():
            t0 = sim.now
            yield rep.write("/near", mib(1))
            latencies["near"] = sim.now - t0
            t0 = sim.now
            yield rep.write("/far", mib(1))
            latencies["far"] = sim.now - t0

        sim.process(proc())
        sim.run()
        assert latencies["far"] > latencies["near"]
        assert "c" in rep.files["/far"].copies  # distance floor respected

    @staticmethod
    def _sync_write_losing_b(fail_c_at: float | None):
        """A sync 8 MiB write from ``a`` to both ``b`` and ``c``; ``b``
        fails while its transfer is on the WAN, failing the write while
        the slower transfer to ``c`` is still in flight.  Returns the
        replicator, ``c``'s version as the caller saw the write fail, and
        the write's version."""
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", FilePolicy(replication_mode=ReplicationMode.SYNC,
                                      replication_sites=2), a)
        sim.call_at(0.03, b.fail)
        if fail_c_at is not None:
            sim.call_at(fail_c_at, c.fail)
        seen = {}

        def proc():
            try:
                yield rep.write("/f", mib(8))
            except FAULT_EXCEPTIONS:
                gf = rep.files["/f"]
                seen["c"] = gf.site_versions.get("c")
                seen["version"] = gf.version

        sim.process(proc())
        sim.run()
        return rep, seen["c"], seen["version"]

    def test_sync_failure_leaves_inflight_replica_until_it_lands(self):
        rep, c_at_failure, version = self._sync_write_losing_b(None)
        # Still on the WAN when the write failed: not current yet...
        assert c_at_failure is None
        # ...and current once its bytes landed.
        assert rep.files["/f"].site_versions["c"] == version
        assert ("/f", "c") not in rep.divergence
        assert rep.divergence[("/f", "b")] == mib(8)

    def test_sync_failure_notes_divergence_when_inflight_replica_fails(self):
        rep, c_at_failure, _version = self._sync_write_losing_b(0.06)
        assert c_at_failure is None
        assert "c" not in rep.files["/f"].site_versions
        assert rep.divergence[("/f", "c")] == mib(8)
        assert rep.divergence[("/f", "b")] == mib(8)

    def test_overlapping_sync_writes_mark_only_their_own_version(self):
        # The second write bumps the file's version while the first is
        # still replicating: the first write's ack must not mark the
        # target current through bytes that have not landed.
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)
        acked = []

        def writer():
            yield rep.write("/f", mib(8))
            acked.append(dict(rep.files["/f"].site_versions))

        sim.process(writer())
        sim.call_at(0.02, lambda: sim.process(writer()))
        sim.run()
        assert acked == [{"a": 2, "b": 1}, {"a": 2, "b": 2}]

    def test_preferred_sites_honored(self):
        sim = Simulator()
        net, a, _b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        policy = FilePolicy(replication_mode=ReplicationMode.SYNC,
                            replication_sites=1, preferred_sites=("c",))
        rep.register("/f", policy, a)

        def proc():
            yield rep.write("/f", mib(1))

        sim.process(proc())
        sim.run()
        assert rep.files["/f"].copies == {"a", "c"}

    def test_unreplicated_policy_stays_home(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/scratch", NONE, a)

        def proc():
            yield rep.write("/scratch", mib(4))

        sim.process(proc())
        sim.run()
        assert rep.files["/scratch"].copies == {"a"}

    def test_policy_change_at_any_time(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", NONE, a)
        rep.set_policy("/f", SYNC1)

        def proc():
            yield rep.write("/f", mib(1))

        sim.process(proc())
        sim.run()
        assert "b" in rep.files["/f"].copies

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", NONE, a)
        with pytest.raises(ValueError):
            rep.register("/f", NONE, a)

    def test_disaster_report_classification(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/replicated", SYNC1, a)
        rep.register("/unreplicated", NONE, a)

        def proc():
            yield rep.write("/replicated", mib(1))
            yield rep.write("/unreplicated", mib(1))

        sim.process(proc())
        sim.run()
        report = rep.site_disaster_report("a")
        assert report["lost_files"] == 1
        assert report["safe_files"] == 1


class TestDistributedAccess:
    def test_first_touch_remote_then_local(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1))
        dam.register("/data", 16 * mib(1), home=a)
        sources = []
        times = []

        def proc():
            for _ in range(2):
                t0 = sim.now
                src = yield dam.read("/data", 0, b)
                sources.append(src)
                times.append(sim.now - t0)

        sim.process(proc())
        sim.run(until=60.0)
        assert sources == ["remote", "local"]
        assert times[1] < times[0]  # local performance after migration

    def test_prefetch_warms_following_blocks(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       prefetch_depth=4)
        dam.register("/data", 16 * mib(1), home=a)

        def proc():
            yield dam.read("/data", 0, b)
            # Give background prefetch time to land.
            yield sim.timeout(5.0)
            src = yield dam.read("/data", 1, b)
            return src

        p = sim.process(proc())
        sim.run(until=60.0)
        assert p.value == "local"
        assert dam.prefetched_blocks >= 1

    def test_auto_replication_after_threshold(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       auto_replicate_threshold=3,
                                       prefetch_depth=1)
        dam.register("/hot", 8 * mib(1), home=a)

        def proc():
            # Scattered accesses from site b cross the threshold.
            for block in (0, 3, 6):
                yield dam.read("/hot", block, b)
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run(until=60.0)
        assert dam.files["/hot"].fully_resident_at("b")

    def test_out_of_range_block(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1))
        dam.register("/f", mib(2), home=a)
        caught = []

        def proc():
            try:
                yield dam.read("/f", 99, b)
            except ValueError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]


class TestDisasterRecovery:
    def test_failover_promotes_replicas(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        rep.register("/critical", SYNC1, a)
        rep.register("/scratch", NONE, a)

        def proc():
            yield rep.write("/critical", mib(1))
            yield rep.write("/scratch", mib(1))
            report = yield dr.fail_site(a)
            return report

        p = sim.process(proc())
        sim.run(until=30.0)
        report = p.value
        assert report.safe_files == 1
        assert report.lost_files == 1
        assert report.new_homes["/critical"] == "b"
        assert rep.files["/critical"].home == "b"
        assert report.rto == pytest.approx(
            dr.detection_delay + dr.catalog_failover_time)

    def test_rpo_counts_undrained_async(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        # Strangle the a-b link so async backlog persists.
        for u, v, link in net.links():
            link.bandwidth = 1e3
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        rep.register("/f", ASYNC1, a)

        def proc():
            yield rep.write("/f", mib(4))
            report = yield dr.fail_site(a)
            return report

        p = sim.process(proc())
        sim.run(until=10.0)
        assert p.value.rpo_bytes > 0

    def test_failed_site_returning_mid_recovery_rejoins_fenced(self):
        """A site that comes back during the detection window must NOT
        resume write authority: promotion still completes, the returned
        home is fenced on the old epoch, and only reconciliation readmits
        it as a replica."""
        from repro.geo import EpochFencingError, ReconcileDaemon
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        daemon = ReconcileDaemon(sim, net, rep, settle_delay=0.1).start()
        rep.register("/f", ASYNC1, a)
        out = {}

        def proc():
            old_epoch = rep.leases.epoch("/f")
            yield rep.write("/f", mib(2), epoch=old_epoch)
            yield sim.timeout(3.0)  # replica at b is current
            recovery = dr.fail_site(a)
            # Power comes back inside detection_delay + failover time —
            # mid-recovery, before survivors finish promoting.
            yield sim.timeout(dr.detection_delay / 2)
            a.repair()
            report = yield recovery
            out["new_home"] = report.new_homes.get("/f")
            out["epoch"] = rep.leases.epoch("/f")
            out["fenced"] = rep.leases.fenced_holders("/f")
            # The returned ex-home retries on its stale epoch: fenced.
            try:
                yield rep.write("/f", mib(1), epoch=old_epoch)
                out["stale_write"] = "applied"
            except EpochFencingError:
                out["stale_write"] = "fenced"

        p = sim.process(proc())
        sim.run(until=p)
        sim.run()
        assert out["new_home"] == "b"
        assert rep.files["/f"].home == "b"
        assert out["epoch"] == 2
        assert out["fenced"] == {"a"}
        assert out["stale_write"] == "fenced"
        # The repair up-transition fired *before* promotion recorded the
        # fork, so the heal-triggered sweep saw nothing: the ex-home stays
        # fenced until reconciliation actually runs (operator sweep).
        assert rep.leases.fenced_holders("/f") == {"a"}
        daemon.request_sweep()
        sim.run()
        # Reconciliation caught the rejoined site up and lifted the
        # fence — as a *replica*, with authority still at b.
        gf = rep.files["/f"]
        assert "a" in gf.copies
        assert gf.site_versions["a"] == gf.version
        assert rep.leases.fenced_holders("/f") == set()
        assert rep.leases.holder("/f") == "b"
        assert daemon.summary()["sweeps"] >= 1

    def test_sync_policy_has_zero_rpo(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        rep.register("/f", SYNC1, a)

        def proc():
            for _ in range(5):
                yield rep.write("/f", mib(1))
            report = yield dr.fail_site(a)
            return report

        p = sim.process(proc())
        sim.run(until=30.0)
        assert p.value.rpo_bytes == 0
        assert p.value.lost_files == 0
