"""Unit tests for the rebuild engine: scaling, priority, worker failover."""

import pytest

from repro.hardware import make_disk_farm
from repro.raid import RaidArray, RaidLevel, rebuild_job
from repro.sim import RegionEngine, Simulator

CHUNK = 64 * 1024
DISK_CAP = 256 * CHUNK  # 16 MiB per disk → 256 stripes


def degraded_array(sim, level=RaidLevel.RAID5, n=4):
    arr = RaidArray(sim, make_disk_farm(sim, n, DISK_CAP), level,
                    chunk_size=CHUNK)
    arr.mark_failed(0)
    arr.mark_replaced(0)
    return arr


def run_rebuild(workers, level=RaidLevel.RAID5, n=4):
    sim = Simulator()
    arr = degraded_array(sim, level, n)
    job = rebuild_job(arr, 0, region=16)
    engine = RegionEngine(sim)
    engine.start(job, workers=workers)
    sim.run()
    assert job.done
    return job.finished_at - job.started_at


def test_rebuild_completes_and_tracks_progress():
    sim = Simulator()
    arr = degraded_array(sim)
    job = rebuild_job(arr, 0, region=16)
    assert job.progress == 0.0
    RegionEngine(sim).start(job, workers=2)
    sim.run()
    assert job.done
    assert job.progress == 1.0
    assert job.completed == job.total
    # The replacement disk received every stripe chunk.
    assert arr.disks[0].bytes_moved >= job.total * CHUNK


def test_narrow_array_rebuild_does_not_scale_with_workers():
    """On a narrow 4-disk group, extra workers mostly add head thrash —
    the physical reason the paper's distributed rebuild needs the wide,
    declustered pool (see test_raid_decluster.py for the scaling case)."""
    t1 = run_rebuild(1)
    t4 = run_rebuild(4)
    # No miracle: within 3x either way, but definitely completes.
    assert 0.3 * t1 < t4 < 4.0 * t1


def test_rebuild_requires_replaced_disk():
    sim = Simulator()
    arr = RaidArray(sim, make_disk_farm(sim, 4, DISK_CAP), RaidLevel.RAID5,
                    chunk_size=CHUNK)
    arr.mark_failed(0)
    with pytest.raises(ValueError):
        rebuild_job(arr, 0)


def test_zero_workers_rejected():
    sim = Simulator()
    arr = degraded_array(sim)
    job = rebuild_job(arr, 0)
    with pytest.raises(ValueError):
        RegionEngine(sim).start(job, workers=0)


def test_worker_failure_mid_rebuild_is_resumed_by_survivors():
    sim = Simulator()
    arr = degraded_array(sim)
    job = rebuild_job(arr, 0, region=32)
    engine = RegionEngine(sim)
    workers = engine.start(job, workers=2)

    def killer():
        yield sim.timeout(0.2)
        if workers[0].is_alive:
            workers[0].interrupt("blade died")

    sim.process(killer())
    sim.run()
    # The surviving worker finished everything, including the dead
    # worker's returned region.
    assert job.done
    assert job.progress == 1.0


def test_add_worker_scales_out_in_flight():
    sim = Simulator()
    arr = degraded_array(sim)
    job = rebuild_job(arr, 0, region=16)
    engine = RegionEngine(sim)
    engine.start(job, workers=1)

    def scaler():
        yield sim.timeout(0.1)
        engine.add_worker(job)
        engine.add_worker(job)

    sim.process(scaler())
    sim.run()
    assert job.done


def test_raid1_rebuild_copies_from_mirror():
    sim = Simulator()
    arr = RaidArray(sim, make_disk_farm(sim, 2, DISK_CAP), RaidLevel.RAID1,
                    chunk_size=CHUNK)
    arr.mark_failed(1)
    arr.mark_replaced(1)
    job = rebuild_job(arr, 1, region=64)
    RegionEngine(sim).start(job, workers=1)
    sim.run()
    assert job.done
    assert arr.disks[0].bytes_moved >= job.total * CHUNK  # source reads


def test_raid10_rebuild_uses_pair_partner():
    sim = Simulator()
    arr = RaidArray(sim, make_disk_farm(sim, 4, DISK_CAP), RaidLevel.RAID10,
                    chunk_size=CHUNK)
    arr.mark_failed(2)
    arr.mark_replaced(2)
    job = rebuild_job(arr, 2, region=64)
    RegionEngine(sim).start(job, workers=1)
    sim.run()
    assert job.done
    # Partner of disk 2 is disk 3; disks 0/1 see no read traffic.
    assert arr.disks[3].bytes_moved > 0
    assert arr.disks[0].bytes_moved == 0


def test_rebuild_yields_to_foreground_io():
    """Foreground latency during rebuild stays lower than rebuild-priority IO."""
    sim = Simulator()
    arr = degraded_array(sim)
    job = rebuild_job(arr, 0, region=16)
    RegionEngine(sim, io_priority=10.0).start(job, workers=2)
    latencies = []

    def foreground():
        for _ in range(50):
            start = sim.now
            yield arr.disks[1].read(0, CHUNK, priority=0.0)
            latencies.append(sim.now - start)
            yield sim.timeout(0.002)

    sim.process(foreground())
    sim.run()
    # Foreground ops jump the rebuild queue: mean latency stays within a
    # couple of service times of an unloaded disk.
    unloaded = arr.disks[1].service_time(0, CHUNK) + 0.008
    assert sum(latencies) / len(latencies) < 3 * unloaded
