"""In-flight verification: transport digests, WAN payload verification,
and the geo tier of the repair chain."""

import pytest

from repro import Simulator, SystemConfig
from repro.fs.policies import FilePolicy, ReplicationMode
from repro.geo import MetadataCenter
from repro.geo.replication import GeoReplicator
from repro.geo.site import Site
from repro.geo.wan import WanNetwork
from repro.integrity import IntegrityManager
from repro.plan import SiteSpec
from repro.protocols.transports import FC_TRANSPORT, TransportEndpoint
from repro.sim.units import gbps, mib


# -- transport endpoints ---------------------------------------------------


def _endpoint(sim, digests):
    return TransportEndpoint(sim, FC_TRANSPORT, wire_bandwidth=gbps(2),
                             integrity=IntegrityManager(sim),
                             digests=digests)


def _timed_transfer(sim, ep, nbytes=mib(1)):
    ev = ep.transfer(nbytes)
    t0 = sim.now
    sim.run(until=ev)
    return sim.now - t0


def test_transport_digest_catches_and_retransmits():
    sim = Simulator()
    ep = _endpoint(sim, digests=True)
    clean = _timed_transfer(sim, ep)
    ep.corrupt_next()
    damaged = _timed_transfer(sim, ep)
    assert ep.retransmits == 1
    assert damaged > clean  # the retransmit costs real wire/CPU time
    s = ep.integrity.summary()
    assert s["injected"] == 1 and s["detected"] == 1
    assert s["repaired"] == 1 and s["silent"] == 0


def test_transport_without_digests_delivers_silently():
    sim = Simulator()
    ep = _endpoint(sim, digests=False)
    clean = _timed_transfer(sim, ep)
    ep.corrupt_next()
    damaged = _timed_transfer(sim, ep)
    assert ep.retransmits == 0
    assert damaged == clean  # nothing noticed, nothing paid
    s = ep.integrity.summary()
    assert s["injected"] == 1 and s["detected"] == 0
    assert s["silent"] == 1


def test_arming_wire_faults_requires_integrity():
    sim = Simulator()
    ep = TransportEndpoint(sim, FC_TRANSPORT, wire_bandwidth=gbps(2))
    with pytest.raises(RuntimeError):
        ep.corrupt_next()


# -- WAN payload verification ----------------------------------------------


SYNC1 = FilePolicy(replication_mode=ReplicationMode.SYNC,
                   replication_sites=1)


def _geo(sim, verify_payloads):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 3000.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    rep = GeoReplicator(sim, net, integrity=IntegrityManager(sim),
                        verify_payloads=verify_payloads)
    rep.register("/f", SYNC1, a)
    return rep


def test_geo_payload_digest_miss_resends():
    sim = Simulator()
    rep = _geo(sim, verify_payloads=True)
    rep.corrupt_next()
    sim.run(until=rep.write("/f", mib(1)))
    assert rep.resends == 1
    s = rep.integrity.summary()
    assert s["detected"] == 1 and s["repaired"] == 1
    assert rep.files["/f"].copies == {"a", "b"}


def test_geo_without_verification_lands_silently():
    sim = Simulator()
    rep = _geo(sim, verify_payloads=False)
    rep.corrupt_next()
    sim.run(until=rep.write("/f", mib(1)))
    assert rep.resends == 0
    assert rep.integrity.summary()["silent"] == 1


# -- the geo tier of the repair chain --------------------------------------


def test_geo_tier_repairs_when_local_tiers_cannot():
    sim = Simulator()
    mc = MetadataCenter(sim, [SiteSpec("east"),
                              SiteSpec("west", (0.0, 3000.0))],
                        config=SystemConfig(
                            blade_count=4, disk_count=16,
                            disk_capacity=mib(64), seed=7,
                            integrity=True))
    mc.connect("east", "west")
    east = mc.systems["east"]
    east.create("/data/f")
    sim.run(until=east.write("/data/f", 0, mib(2)))
    sim.run()
    pool = east.pool
    k = pool.data_per_stripe

    # Corrupt a *parity* chunk (no cached logical block -> cache tier
    # structurally out) and fail another member of the same stripe
    # (second erasure -> parity tier out).  Only the WAN refetch is left.
    target = None
    for stripe in range(pool.stripe_count):
        members = pool.stripe_members(stripe)
        parity_disk = members[k]
        addr = pool.chunk_slot(stripe, parity_disk)
        if east.integrity.stamped_overlap(pool.disks[parity_disk].name,
                                          addr, pool.chunk_size):
            target = (stripe, parity_disk, addr, members[0])
            break
    assert target is not None
    stripe, parity_disk, addr, other_member = target
    assert east.integrity.corrupt(pool.disks[parity_disk].name, addr,
                                  pool.chunk_size, "bitrot")
    pool.disks[other_member].fail()
    pool.mark_failed(other_member)

    east.start_scrub(passes=1)
    sim.run()
    chain = east.repair_chain
    assert chain.repaired_by("geo_replica") == 1
    assert chain.repaired_by("cache_replica") == 0
    assert chain.repaired_by("raid_parity") == 0
    s = east.integrity.summary()
    assert s["repaired"] == s["detected"] == 1
    assert s["unrepairable"] == 0
