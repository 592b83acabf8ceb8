"""Unit tests for declustered placement and distributed rebuild scaling."""

import pytest

from repro.hardware import make_disk_farm
from repro.raid import DeclusteredPool, rebuild_job
from repro.sim import RegionEngine, Simulator

CHUNK = 64 * 1024
DISK_CAP = 128 * CHUNK


def make_pool(sim, n_disks=16, k=4):
    disks = make_disk_farm(sim, n_disks, DISK_CAP, name="farm")
    return DeclusteredPool(sim, disks, data_per_stripe=k, chunk_size=CHUNK)


class TestPlacement:
    def test_members_distinct_and_in_range(self):
        sim = Simulator()
        pool = make_pool(sim)
        for stripe in range(0, pool.stripe_count, 37):
            members = pool.stripe_members(stripe)
            assert len(members) == len(set(members)) == 5
            assert all(0 <= m < 16 for m in members)

    def test_placement_deterministic(self):
        a = make_pool(Simulator())
        b = make_pool(Simulator())
        for stripe in range(50):
            assert a.stripe_members(stripe) == b.stripe_members(stripe)
            assert a.chunk_slot(stripe, 3) == b.chunk_slot(stripe, 3)

    def test_load_spread_across_disks(self):
        """Every disk carries a similar share of stripes (declustering)."""
        sim = Simulator()
        pool = make_pool(sim)
        counts = [len(pool.stripes_on_disk(d)) for d in range(16)]
        mean = sum(counts) / len(counts)
        assert all(0.6 * mean < c < 1.4 * mean for c in counts)

    def test_spare_target_avoids_members_and_failed(self):
        sim = Simulator()
        pool = make_pool(sim)
        pool.mark_failed(2)
        for stripe in pool.stripes_on_disk(2)[:20]:
            spare = pool.spare_target(stripe, 2)
            assert spare not in pool.stripe_members(stripe)
            assert spare != 2

    def test_stripe_out_of_range(self):
        sim = Simulator()
        pool = make_pool(sim)
        with pytest.raises(ValueError):
            pool.stripe_members(pool.stripe_count)

    def test_too_few_disks_rejected(self):
        sim = Simulator()
        disks = make_disk_farm(sim, 4, DISK_CAP)
        with pytest.raises(ValueError):
            DeclusteredPool(sim, disks, data_per_stripe=4)


class TestPoolIo:
    def test_read_completes(self):
        sim = Simulator()
        pool = make_pool(sim)

        def proc():
            yield pool.read(0, 4 * CHUNK)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value > 0

    def test_write_touches_parity(self):
        sim = Simulator()
        pool = make_pool(sim)

        def proc():
            yield pool.write(0, CHUNK)

        sim.process(proc())
        sim.run()
        writes = sum(d.ops for d in pool.disks)
        assert writes == 2  # data chunk + parity chunk

    def test_degraded_read_reconstructs(self):
        sim = Simulator()
        pool = make_pool(sim)
        victim_stripe = 0
        members = pool.stripe_members(victim_stripe)
        pool.mark_failed(members[0])

        def proc():
            yield pool.read(0, CHUNK)  # chunk 0 lives on members[0]

        sim.process(proc())
        sim.run()
        # Peers were read instead of the failed disk.
        peer_reads = sum(pool.disks[m].ops for m in members[1:])
        assert peer_reads == len(members) - 1

    def test_out_of_range_rejected(self):
        sim = Simulator()
        pool = make_pool(sim)
        with pytest.raises(ValueError):
            pool.read(pool.capacity, 1)


def run_declustered_rebuild(workers, n_disks=16):
    sim = Simulator()
    pool = make_pool(sim, n_disks=n_disks)
    pool.mark_failed(0)
    job = rebuild_job(pool, 0, region=8)
    RegionEngine(sim).start(job, workers=workers)
    sim.run()
    assert job.done
    assert job.progress == 1.0
    return job.finished_at - job.started_at


class TestDistributedRebuild:
    def test_rebuild_scales_with_workers(self):
        """The paper's §2.4/§6.3 claim: distributing rebuild across
        controllers speeds it up, because declustered peers/spares spread
        the I/O over the whole farm."""
        t1 = run_declustered_rebuild(1)
        t4 = run_declustered_rebuild(4)
        t8 = run_declustered_rebuild(8)
        assert t4 < 0.45 * t1  # near-linear at low worker counts
        assert t8 < t4          # still improving
        assert t8 > t1 / 16     # but not super-linear

    def test_rebuild_requires_failed_disk(self):
        sim = Simulator()
        pool = make_pool(sim)
        with pytest.raises(ValueError):
            rebuild_job(pool, 0)

    def test_worker_failure_resumed(self):
        sim = Simulator()
        pool = make_pool(sim)
        pool.mark_failed(0)
        job = rebuild_job(pool, 0, region=16)
        engine = RegionEngine(sim)
        workers = engine.start(job, workers=2)

        def killer():
            yield sim.timeout(0.05)
            if workers[0].is_alive:
                workers[0].interrupt("blade failure")

        sim.process(killer())
        sim.run()
        assert job.done

    def test_zero_workers_rejected(self):
        sim = Simulator()
        pool = make_pool(sim)
        pool.mark_failed(0)
        job = rebuild_job(pool, 0)
        with pytest.raises(ValueError):
            RegionEngine(sim).start(job, workers=0)
