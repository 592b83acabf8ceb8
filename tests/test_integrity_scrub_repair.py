"""End-to-end scrub + repair escalation against a full system.

The compound-fault case here is the acceptance scenario: bitrot found by
the scrub while the blade holding the cached replica is crashed must
fall through to parity reconstruction, with the stripe's I/O accounted
exactly (each surviving member read once, the corrupt chunk rewritten
once).
"""

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.sim.units import mib


def make_system(sim, **kwargs):
    cfg = SystemConfig(blade_count=4, disk_count=16,
                       disk_capacity=mib(64), seed=7, integrity=True,
                       **kwargs)
    system = NetStorageSystem(sim, cfg)
    system.start()
    system.create("/data/file")
    sim.run(until=system.write("/data/file", 0, mib(2)))
    # Run to idle: the write ack is replication-safe, not on-disk; the
    # background flusher destages the tail of the burst once quiesced.
    sim.run()
    sim.run(until=system.cache.drain_dirty())
    return system


def test_scrub_requires_integrity():
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(64), seed=7))
    system.start()
    with pytest.raises(RuntimeError):
        system.start_scrub()
    with pytest.raises(RuntimeError):
        system.inject_at_rest_corruption(0)


def test_injection_targets_only_stamped_data():
    sim = Simulator()
    cfg = SystemConfig(blade_count=4, disk_count=16,
                       disk_capacity=mib(64), seed=7, integrity=True)
    system = NetStorageSystem(sim, cfg)
    system.start()
    # Nothing written yet: no stamped chunks, nothing to corrupt.
    assert system.inject_at_rest_corruption(0) == 0


def test_scrub_detects_and_repairs_at_rest_corruption():
    sim = Simulator()
    system = make_system(sim)
    injected = sum(system.inject_at_rest_corruption(i, "bitrot")
                   for i in range(len(system.pool.disks)))
    assert injected > 0
    system.start_scrub(passes=1)
    sim.run()
    s = system.integrity.summary()
    assert s["detected"] == s["injected"] == injected
    assert s["repaired"] == injected
    assert s["unrepairable"] == 0 and s["outstanding"] == 0
    scrubber = system.scrubber
    assert scrubber.passes_completed == 1
    assert scrubber.misses_found == injected
    assert scrubber.repairs_failed == 0


def test_bitrot_with_crashed_replica_blade_falls_to_parity():
    sim = Simulator()
    system = make_system(sim)
    pool = system.pool
    chunk = pool.chunk_size
    k = pool.data_per_stripe

    # Find a *data* chunk that is stamped on disk and still resident in
    # some blade's cache (so the cache-replica tier would win if we left
    # those blades alive), then rot exactly that chunk.
    target = None
    for disk_index in range(len(pool.disks)):
        disk = pool.disks[disk_index]
        for stripe in pool.stripes_on_disk(disk_index):
            members = pool.stripe_members(stripe)
            member = members.index(disk_index)
            if member >= k:
                continue  # parity chunk: no cached logical block
            addr = pool.chunk_slot(stripe, disk_index)
            if not system.integrity.stamped_overlap(disk.name, addr,
                                                    chunk):
                continue
            key = system._offset_to_key.get(
                (stripe * k + member) * system.config.block_size)
            entry = system.cache.directory.entry(key) \
                if key is not None else None
            if entry is not None and entry.holders():
                target = (disk_index, stripe, member, addr, key, entry)
                break
        if target is not None:
            break
    assert target is not None, "no cached data chunk to corrupt"
    disk_index, stripe, member, addr, key, entry = target
    assert system.integrity.corrupt(pool.disks[disk_index].name, addr,
                                    chunk, "bitrot")

    # Crash every blade holding the replica: tier 1 is now structurally
    # unavailable and the chain must reconstruct from parity.
    for holder in sorted(entry.holders()):
        system.cluster.blades[holder].fail()

    members = pool.stripe_members(stripe)
    before = {d: (pool.disks[d].ops, pool.disks[d].bytes_moved)
              for d in range(len(pool.disks))}
    system.start_scrub(passes=1)
    sim.run()

    chain = system.repair_chain
    assert chain.repaired_by("raid_parity") == 1
    assert chain.repaired_by("cache_replica") == 0
    assert chain.counts["cache_replica", "attempts"] == 0
    s = system.integrity.summary()
    assert s["detected"] == s["injected"] == 1
    assert s["repaired"] == 1 and s["unrepairable"] == 0

    # Exact stripe accounting on top of the scrub's own walk (one read
    # per live chunk): every surviving stripe member was read exactly one
    # extra chunk for the reconstruction, the corrupt disk wrote exactly
    # the rebuilt chunk, and bystander disks saw scrub reads only.
    def scrub_chunks(d):
        return len(pool.stripes_on_disk(d))

    for d in range(len(pool.disks)):
        ops0, bytes0 = before[d]
        dops = pool.disks[d].ops - ops0
        dbytes = pool.disks[d].bytes_moved - bytes0
        if d == disk_index:
            # Scrub reads (the corrupt one included) + the repair write.
            assert dops == scrub_chunks(d) + 1
            assert dbytes == (scrub_chunks(d) + 1) * chunk
        elif d in members:
            assert dops == scrub_chunks(d) + 1
            assert dbytes == (scrub_chunks(d) + 1) * chunk
        else:
            assert dops == scrub_chunks(d)
            assert dbytes == scrub_chunks(d) * chunk


def test_scrub_miss_and_repair_reach_the_event_log():
    # The scrub/repair narration must survive observability being on —
    # the event-log's positional ``kind`` is the event kind, so fault
    # kinds ride as the ``fault_kind`` attribute.
    sim = Simulator()
    system = make_system(sim, observability=True)
    injected = system.inject_at_rest_corruption(3, "bitrot")
    assert injected > 0
    system.start_scrub(passes=1)
    sim.run()
    assert system.integrity.summary()["repaired"] == injected
    log = sim.obs.log
    misses = log.records(kind="verification_miss")
    assert len(misses) == injected
    assert all(dict(r.attrs)["fault_kind"] == "bitrot" for r in misses)
    repaired = log.records(kind="repaired")
    assert len(repaired) == injected
    assert {dict(r.attrs)["tier"] for r in repaired} <= {
        "cache_replica", "raid_parity", "geo_replica"}
    assert log.records(kind="pass_completed")


def test_double_corruption_in_stripe_is_unrepairable_single_site():
    # Two corrupt chunks in one stripe exceed single parity; with no geo
    # tier wired, the chain must account the miss as unrepairable rather
    # than fabricate data.
    sim = Simulator()
    system = make_system(sim)
    pool = system.pool
    # Corrupt two members of the same stripe directly on the ledger.
    stripe = next(s for s in range(pool.stripe_count)
                  if any(pool.chunk_slot(s, d) in
                         system.integrity._stamps.get(pool.disks[d].name,
                                                      {})
                         for d in pool.stripe_members(s)))
    members = pool.stripe_members(stripe)
    hit = []
    for d in members:
        if system.integrity.corrupt(pool.disks[d].name,
                                    pool.chunk_slot(stripe, d),
                                    pool.chunk_size, "bitrot"):
            hit.append(d)
        if len(hit) == 2:
            break
    assert len(hit) == 2
    system.start_scrub(passes=1)
    sim.run()
    s = system.integrity.summary()
    assert s["detected"] == 2
    # Parity can absorb at most one erasure: at least one of the two
    # chunks cannot be reconstructed locally.
    assert s["unrepairable"] >= 1
    assert system.scrubber.repairs_failed == s["unrepairable"]


def test_scrub_skips_failed_disks():
    sim = Simulator()
    system = make_system(sim)
    pool = system.pool
    system.inject_at_rest_corruption(3, "bitrot")
    pool.disks[5].fail()
    pool.failed.add(5)
    before = pool.disks[5].ops
    system.start_scrub(passes=1)
    sim.run()
    assert pool.disks[5].ops == before  # rebuild territory, not scrub's
    assert system.integrity.summary()["outstanding"] == 0
