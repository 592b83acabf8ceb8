"""Integration tests: the MetadataCenter (full stacks at every site)."""

import pytest

from repro.core import SystemConfig
from repro.fs import FilePolicy, ReplicationMode
from repro.geo import MetadataCenter
from repro.plan import SiteSpec
from repro.sim import Simulator
from repro.sim.units import gbps, mib

SYNC1 = FilePolicy(replication_mode=ReplicationMode.SYNC, replication_sites=1)


def small_config():
    return SystemConfig(blade_count=2, disk_count=8, disk_capacity=mib(64),
                        cache_bytes_per_blade=mib(8), replication=2)


def make_center(sim):
    center = MetadataCenter(sim, [
        SiteSpec("edmonton", (0.0, 0.0)),
        SiteSpec("seattle", (150.0, -1100.0)),
        SiteSpec("boulder", (1400.0, -1500.0)),
    ], config=small_config())
    center.connect("edmonton", "seattle", bandwidth=gbps(2.5))
    center.connect("seattle", "boulder", bandwidth=gbps(1.0))
    center.connect("edmonton", "boulder", bandwidth=gbps(0.622))
    return center


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MetadataCenter(sim, [SiteSpec("only")])


def test_create_and_local_write_read():
    sim = Simulator()
    center = make_center(sim)
    center.create("/proj/data", home="edmonton", policy=SYNC1)

    def client():
        yield center.write("/proj/data", 0, mib(1))
        got = yield center.read("/proj/data", 0, mib(1), at="edmonton")
        return got

    p = sim.process(client())
    sim.run(until=p)
    assert p.value == mib(1)
    # The sync replica landed at the nearest site (seattle).
    assert center.replicator.files["/proj/data"].copies == {"edmonton",
                                                            "seattle"}


def test_sync_write_ack_includes_wan():
    sim = Simulator()
    center = make_center(sim)
    center.create("/sync", home="edmonton", policy=SYNC1)
    center.create("/plain", home="edmonton", policy=FilePolicy())

    def client():
        t0 = sim.now
        yield center.write("/plain", 0, mib(1))
        plain = sim.now - t0
        t0 = sim.now
        yield center.write("/sync", 0, mib(1))
        synced = sim.now - t0
        return plain, synced

    p = sim.process(client())
    sim.run(until=p)
    plain, synced = p.value
    sites = center.network.sites
    assert synced > plain + center.network.rtt(
        sites["edmonton"], sites["seattle"]) * 0.9


def test_remote_read_migrates_then_serves_locally():
    sim = Simulator()
    center = make_center(sim)
    center.create("/atlas", home="edmonton")

    def client():
        yield center.write("/atlas", 0, 4 * mib(1))
        t0 = sim.now
        yield center.read("/atlas", 0, mib(1), at="boulder")
        first = sim.now - t0
        t0 = sim.now
        yield center.read("/atlas", 0, mib(1), at="boulder")
        second = sim.now - t0
        return first, second

    p = sim.process(client())
    sim.run(until=p)
    first, second = p.value
    assert second < first  # migrated copy serves locally


def test_write_from_remote_site_forwards_to_home():
    sim = Simulator()
    center = make_center(sim)
    center.create("/f", home="edmonton")

    def client():
        t0 = sim.now
        yield center.write("/f", 0, mib(1), at="boulder")
        return sim.now - t0

    p = sim.process(client())
    sim.run(until=p)
    # Forwarding Boulder->Edmonton crosses the slow OC-12: >= transfer time.
    assert p.value > mib(1) / (gbps(0.622))


def test_site_disaster_fails_over_and_survivors_serve():
    sim = Simulator()
    center = make_center(sim)
    center.create("/critical", home="edmonton", policy=SYNC1)
    center.create("/scratch", home="edmonton")

    def client():
        yield center.write("/critical", 0, mib(1))
        yield center.write("/scratch", 0, mib(1))
        report = yield center.fail_site("edmonton")
        # Post-disaster: the replicated file still accepts writes at its
        # new home.
        yield center.write("/critical", 0, mib(1))
        return report

    p = sim.process(client())
    sim.run(until=p)
    report = p.value
    assert report.lost_files == 1  # /scratch had no replica
    assert report.new_homes["/critical"] == "seattle"
    assert center.replicator.files["/critical"].home == "seattle"


def test_report_aggregates_sites():
    sim = Simulator()
    center = make_center(sim)
    center.create("/f", home="seattle")
    report = center.report()
    assert report["files"] == 1.0
    assert "edmonton.cluster.availability" in report
    assert "boulder.balancer.imbalance" in report


def test_encrypted_tunnel_rate():
    """§5.1: hardware-encrypted tunnels run at wire speed; a software
    tunnel is throttled by the cipher rate."""
    sim = Simulator()
    from repro.geo import Site, WanNetwork
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 500.0)))
    hw = net.connect(a, b, bandwidth=gbps(2.5), encrypted=True,
                     crypto_mode="hardware")
    assert hw.bandwidth == pytest.approx(gbps(2.5))
    sim2 = Simulator()
    net2 = WanNetwork(sim2)
    a2 = net2.add_site(Site(sim2, "a", (0.0, 0.0)))
    b2 = net2.add_site(Site(sim2, "b", (0.0, 500.0)))
    sw = net2.connect(a2, b2, bandwidth=gbps(2.5), encrypted=True,
                      crypto_mode="software")
    assert sw.bandwidth < gbps(2.5) / 2  # cipher-bound
    assert sw.encrypted and sw.crypto_mode == "software"


def _disk_load_after_replicated_writes():
    sim = Simulator()
    center = MetadataCenter(sim, [
        SiteSpec("a", (0.0, 0.0)),
        SiteSpec("b", (150.0, -1100.0)),
    ], config=small_config())
    center.connect("a", "b", bandwidth=gbps(1.0))
    for i in range(2):
        center.create(f"/f{i}", home="a", policy=SYNC1)

    def client():
        for rnd in range(3):
            for i in range(2):
                yield center.write(f"/f{i}", rnd * mib(1), mib(1))
                yield center.read(f"/f{i}", rnd * mib(1), mib(1), at="b")
            yield sim.timeout(5.0)

    sim.run(until=sim.process(client()))
    sim.run(until=sim.now + 30.0)
    return {(site, d.name): (d.ops, d.bytes_moved)
            for site, system in center.systems.items()
            for d in system.pool.disks}


def test_replica_ingest_is_deterministic_within_a_process():
    """Replica ingest keys its cache blocks by site name, so two identical
    runs in one process put identical load on every disk."""
    first = _disk_load_after_replicated_writes()
    second = _disk_load_after_replicated_writes()
    assert any(ops for ops, _moved in first.values())
    assert first == second
