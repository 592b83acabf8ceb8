"""Unit tests for the distributed backup engine."""

import pytest

from repro.cluster import backup_job
from repro.sim import FairShareLink, RegionEngine, Simulator
from repro.sim.units import mb_per_s, mib
from repro.virt import Allocator, DemandMappedDevice, StoragePool, take_snapshot

PAGE = mib(1)


def make_snapshot(pages=24):
    alloc = Allocator([StoragePool("p", 256 * PAGE, PAGE)])
    dmsd = DemandMappedDevice("vol", 1024 * PAGE, alloc)
    dmsd.write(0, pages * PAGE)
    return dmsd, take_snapshot(dmsd, "nightly")


def make_job(sim, snap, region=32, tape_rate=mb_per_s(200),
             pool_rate=mb_per_s(400)):
    pool_link = FairShareLink(sim, pool_rate, name="pool")
    tape = FairShareLink(sim, tape_rate, name="tape")
    return backup_job(snap, lambda n, prio: pool_link.transfer(n), tape,
                      region=region)


def run_backup(workers, pages=24):
    sim = Simulator()
    _dmsd, snap = make_snapshot(pages)
    job = make_job(sim, snap, region=4)
    RegionEngine(sim).start(job, workers=workers)
    sim.run()
    assert job.done
    return job.finished_at - job.started_at, job


def test_backup_completes_and_counts_bytes():
    elapsed, job = run_backup(2)
    assert elapsed > 0
    assert job.completed * PAGE == 24 * PAGE


def test_more_workers_back_up_faster_until_tape_saturates():
    t1, _ = run_backup(1)
    t4, _ = run_backup(4)
    assert t4 < t1
    # Beyond the tape link's capacity, workers stop helping much.
    t8, _ = run_backup(8)
    assert t8 <= t4 * 1.05


def test_empty_snapshot_is_instant():
    sim = Simulator()
    alloc = Allocator([StoragePool("p", 8 * PAGE, PAGE)])
    dmsd = DemandMappedDevice("v", 64 * PAGE, alloc)
    snap = take_snapshot(dmsd, "empty")
    job = make_job(sim, snap)
    assert RegionEngine(sim).start(job, workers=2) == []
    assert job.done
    assert job.progress == 1.0


def test_on_done_runs_once_when_the_last_item_finishes():
    sim = Simulator()
    _dmsd, snap = make_snapshot(24)
    job = make_job(sim, snap, region=4)
    fired = []
    job.on_done(lambda: fired.append(sim.now))
    RegionEngine(sim).start(job, workers=3)
    sim.run()
    assert fired == [job.finished_at]
    # Registered on a finished job, a callback runs at once.
    job.on_done(lambda: fired.append("late"))
    assert fired == [job.finished_at, "late"]


def test_worker_failure_region_returned():
    sim = Simulator()
    _dmsd, snap = make_snapshot(32)
    job = make_job(sim, snap, region=8)
    workers = RegionEngine(sim).start(job, workers=2)

    def killer():
        yield sim.timeout(0.02)
        if workers[0].is_alive:
            workers[0].interrupt("blade died")

    sim.process(killer())
    sim.run()
    assert job.done  # survivor finished the returned region
    assert job.progress == 1.0


def test_backup_consistent_despite_live_writes():
    """The snapshot freezes the page set: the backup's byte count equals
    snapshot-time state even while the live device keeps growing."""
    sim = Simulator()
    dmsd, snap = make_snapshot(8)
    job = make_job(sim, snap, region=2)
    RegionEngine(sim).start(job, workers=2)

    def writer():
        for i in range(8, 20):
            yield sim.timeout(0.01)
            dmsd.write(i * PAGE, PAGE)

    sim.process(writer())
    sim.run()
    assert job.completed * PAGE == 8 * PAGE  # not 20


def test_validation():
    sim = Simulator()
    _dmsd, snap = make_snapshot(4)
    with pytest.raises(ValueError):
        make_job(sim, snap, region=0)
    with pytest.raises(ValueError):
        RegionEngine(sim).start(make_job(sim, snap), workers=0)
