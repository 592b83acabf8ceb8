"""Epoch-fenced leases, divergence tracking, and post-heal reconciliation."""

import pytest

from repro.fs import FilePolicy, ReplicationMode
from repro.geo import (
    DisasterRecoveryCoordinator,
    EpochFencingError,
    GeoReplicator,
    ReconcileDaemon,
    Site,
    WanNetwork,
)
from repro.geo.selection import ReplicaCatalog
from repro.obs.telemetry import HealthState
from repro.sim import FAULT_EXCEPTIONS, Simulator
from repro.sim.units import gbps, mib

SYNC1 = FilePolicy(replication_mode=ReplicationMode.SYNC, replication_sites=1)
SYNC2 = FilePolicy(replication_mode=ReplicationMode.SYNC, replication_sites=2)
ASYNC1 = FilePolicy(replication_mode=ReplicationMode.ASYNC,
                    replication_sites=1)
ASYNC2 = FilePolicy(replication_mode=ReplicationMode.ASYNC,
                    replication_sites=2)


def ring(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    c = net.add_site(Site(sim, "c", (0.0, 4000.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(1.0))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


def isolate(net, site, *others):
    """Cut every fibre touching ``site`` (a one-site partition)."""
    for other in others:
        net.link(site.name, other.name).fail()


def heal(net, site, *others):
    for other in others:
        net.link(site.name, other.name).repair()


class TestLeaseAuthority:
    def test_grant_promote_and_epochs(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        assert rep.leases.epoch("/f") == 1
        assert rep.leases.holder("/f") == "a"
        with pytest.raises(ValueError):
            rep.leases.grant("/f", "b")
        rep.leases.promote("/f", "b")
        assert rep.leases.epoch("/f") == 2
        assert rep.leases.holder("/f") == "b"
        assert rep.leases.fenced_holders("/f") == {"a"}

    def test_stale_epoch_rejected_and_counted(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        old = rep.leases.epoch("/f")
        rep.leases.promote("/f", "b")
        with pytest.raises(EpochFencingError):
            rep.leases.check_write("/f", old)
        assert rep.leases.stale_writes_rejected == 1
        # Current epoch and the epoch-less legacy shape both pass.
        rep.leases.check_write("/f", rep.leases.epoch("/f"))
        rep.leases.check_write("/f", None)

    def test_future_epoch_is_a_model_bug(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        with pytest.raises(ValueError):
            rep.leases.check_write("/f", 99)

    def test_health_degraded_while_fenced(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        assert rep.leases.health().state is HealthState.UP
        rep.leases.promote("/f", "b")
        assert rep.leases.health().state is HealthState.DEGRADED
        rep.leases.note_rejoined("/f", "a")
        assert rep.leases.health().state is HealthState.UP

    def test_fenced_write_never_lands_a_byte(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", ASYNC1, a)
        old = rep.leases.epoch("/f")
        rep.leases.promote("/f", "b")
        rep.files["/f"].home = "b"
        caught = []

        def proc():
            try:
                yield rep.write("/f", mib(1), epoch=old)
            except EpochFencingError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]
        assert rep.files["/f"].size == 0
        assert rep.files["/f"].version == 0


class TestDivergenceTracking:
    def test_sync_target_loss_records_divergence(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)
        outcomes = []

        def proc():
            yield rep.write("/f", mib(1))  # b gains a copy
            isolate(net, b, a, net.sites["c"])
            try:
                yield rep.write("/f", mib(2))
            except FAULT_EXCEPTIONS:
                outcomes.append("failed")

        sim.process(proc())
        sim.run()
        # The cut made b unreachable: the sync write failed visibly and
        # whatever b is now missing is on the divergence books.
        assert outcomes == ["failed"]
        assert rep.divergent_bytes_at("b") > 0
        gf = rep.files["/f"]
        assert gf.site_versions["b"] < gf.version

    def test_replica_outside_target_set_diverges(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)

        def proc():
            yield rep.write("/f", mib(1))  # replicates to b
            rep.set_policy("/f", FilePolicy())  # policy narrowed to NONE
            yield rep.write("/f", mib(3))

        sim.process(proc())
        sim.run()
        # b still holds a copy but nothing will ship the new bytes.
        assert rep.divergence[("/f", "b")] == mib(3)
        assert rep.health().state is HealthState.DEGRADED

    def test_clear_divergence_partial_then_full(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)
        gf = rep.files["/f"]
        rep._note_divergence(gf, "b", mib(4))
        rep.clear_divergence("/f", "b", mib(1))
        assert rep.divergence[("/f", "b")] == mib(3)
        rep.clear_divergence("/f", "b")
        assert ("/f", "b") not in rep.divergence
        rep.clear_divergence("/f", "b")  # idempotent on empty

    def test_catalog_staleness_includes_divergence(self):
        sim = Simulator()
        net, a, _b, _c = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/f", SYNC1, a)
        catalog = ReplicaCatalog()
        catalog.bind_replicator(rep)
        gf = rep.files["/f"]
        rep.async_backlog[("/f", "b")] = mib(2)
        rep._note_divergence(gf, "b", mib(3))
        assert catalog.staleness_bytes("/f", "b") == mib(5)


class TestReconcileDaemon:
    def test_heal_triggers_resync_to_zero(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        daemon = ReconcileDaemon(sim, net, rep, settle_delay=0.1).start()
        rep.register("/f", SYNC1, a)

        def proc():
            yield rep.write("/f", mib(1))
            isolate(net, b, a, c)
            for _ in range(3):
                try:
                    yield rep.write("/f", mib(1))
                except FAULT_EXCEPTIONS:
                    pass
            yield sim.timeout(1.0)
            assert rep.divergent_bytes_at("b") > 0
            heal(net, b, a, c)

        sim.process(proc())
        sim.run()
        gf = rep.files["/f"]
        assert rep.total_divergence() == 0
        assert gf.site_versions["b"] == gf.version
        assert "b" in gf.copies
        assert daemon.summary()["sweeps"] >= 1
        assert daemon.summary()["resynced_bytes"] > 0
        assert daemon.health().state is HealthState.UP

    def test_idle_daemon_adds_zero_kernel_events(self):
        def run(with_daemon):
            sim = Simulator()
            net, a, _b, _c = ring(sim)
            rep = GeoReplicator(sim, net)
            if with_daemon:
                ReconcileDaemon(sim, net, rep).start()
            rep.register("/f", ASYNC1, a)

            def proc():
                for _ in range(4):
                    yield rep.write("/f", mib(1))
                    yield sim.timeout(0.5)

            sim.process(proc())
            sim.run(until=30.0)
            return sim.events_processed, rep.files["/f"].version

        assert run(False) == run(True)

    def test_orphan_recovery_branch_ships_fork_home(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        daemon = ReconcileDaemon(sim, net, rep, settle_delay=0.1).start()
        rep.register("/f", ASYNC1, a)

        def proc():
            yield rep.write("/f", mib(4))
            yield sim.timeout(3.0)  # backlog fully drained to b
            # Cut a off first so the pump cannot race the failover: the
            # two acked writes below are deterministically stranded, and
            # the fork is strictly ahead of the surviving lineage.
            isolate(net, a, b, c)
            yield rep.write("/f", mib(1))
            yield rep.write("/f", mib(1))
            yield dr.fail_site(a)
            assert rep.orphans[("/f", "a")].nbytes == mib(2)
            heal(net, a, b, c)
            a.repair()

        p = sim.process(proc())
        sim.run(until=p)
        sim.run()
        gf = rep.files["/f"]
        assert gf.home == "b"
        assert not rep.orphans
        assert rep.total_divergence() == 0
        assert daemon.summary()["orphans_recovered"] == 1
        assert daemon.summary()["conflicts"] == 0
        assert daemon.summary()["resynced_bytes"] >= mib(2)
        # The ex-home rejoined as a current, unfenced replica.
        assert "a" in gf.copies
        assert gf.site_versions["a"] == gf.version
        assert rep.leases.fenced_holders("/f") == set()

    def test_orphan_conflict_branch_counts_lww_loss(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        dr = DisasterRecoveryCoordinator(sim, net, rep)
        daemon = ReconcileDaemon(sim, net, rep, settle_delay=0.1).start()
        rep.register("/f", ASYNC1, a)

        def proc():
            yield rep.write("/f", mib(4))
            yield sim.timeout(3.0)
            isolate(net, a, b, c)
            yield rep.write("/f", mib(2))  # stranded at failover
            yield dr.fail_site(a)
            # The surviving lineage writes *later*: LWW must discard the
            # fork as a counted conflict, never merge it silently.
            yield rep.write("/f", mib(1), epoch=rep.leases.epoch("/f"))
            yield sim.timeout(3.0)
            heal(net, a, b, c)
            a.repair()

        p = sim.process(proc())
        sim.run(until=p)
        sim.run()
        gf = rep.files["/f"]
        assert daemon.summary()["conflicts"] == 1
        assert daemon.summary()["orphans_recovered"] == 0
        assert not rep.orphans
        assert rep.total_divergence() == 0
        # The ex-home was overwritten by the winning lineage and rejoined.
        assert "a" in gf.copies
        assert gf.site_versions["a"] == gf.version
        assert rep.leases.fenced_holders("/f") == set()

    def test_sweep_waits_out_an_unreachable_target(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        rep = GeoReplicator(sim, net)
        daemon = ReconcileDaemon(sim, net, rep, settle_delay=0.1).start()
        rep.register("/f", SYNC1, a)

        def proc():
            yield rep.write("/f", mib(1))
            isolate(net, b, a, c)
            try:
                yield rep.write("/f", mib(2))
            except FAULT_EXCEPTIONS:
                pass
            # A sweep forced while b is still cut must leave the debt on
            # the books, not drop it.
            daemon.request_sweep()
            yield sim.timeout(1.0)
            assert rep.divergent_bytes_at("b") == mib(2)
            heal(net, b, a, c)

        sim.process(proc())
        sim.run()
        assert rep.total_divergence() == 0


class TestMetacenterEpochs:
    def _center(self, sim):
        from repro.core.config import SystemConfig
        from repro.geo.metacenter import MetadataCenter
        from repro.plan.spec import SiteSpec
        sites = [SiteSpec("east", (0.0, 0.0)),
                 SiteSpec("west", (0.0, 2500.0))]
        config = SystemConfig(blade_count=2, disk_count=6,
                              disk_capacity=64 * mib(1))
        mc = MetadataCenter(sim, sites, config=config)
        mc.connect("east", "west", bandwidth=gbps(1.0))
        return mc

    def test_write_epoch_round_trip(self):
        sim = Simulator()
        mc = self._center(sim)
        mc.create("/proj/f", home="east", policy=ASYNC1)
        assert mc.replicator.leases.epoch("/proj/f") == 1

        def proc():
            yield mc.write("/proj/f", 0, mib(1),
                           epoch=mc.replicator.leases.epoch("/proj/f"))

        sim.process(proc())
        sim.run(until=30.0)
        assert mc.replicator.files["/proj/f"].size == mib(1)

    def test_stale_epoch_fenced_at_the_metacenter(self):
        sim = Simulator()
        mc = self._center(sim)
        mc.create("/proj/f", home="east", policy=ASYNC1)
        caught = []

        def proc():
            stale = mc.replicator.leases.epoch("/proj/f")
            yield mc.write("/proj/f", 0, mib(1), epoch=stale)
            yield sim.timeout(5.0)
            yield mc.dr.fail_site(mc.network.sites["east"])
            try:
                yield mc.write("/proj/f", 0, mib(1), epoch=stale)
            except EpochFencingError:
                caught.append(True)

        sim.process(proc())
        sim.run(until=60.0)
        assert caught == [True]
        assert mc.replicator.leases.stale_writes_rejected == 1
