"""Ablation A3 — declustered placement is what makes rebuild distributable.

DESIGN.md claims distributed rebuild only pays off on a declustered farm:
on a narrow RAID group every worker hammers the same member disks and
head thrash eats the parallelism.  This ablation measures rebuild time vs
workers on both placements.
"""

from _common import run_one

from repro.core import format_table, print_experiment
from repro.hardware import make_disk_farm
from repro.raid import DeclusteredPool, RaidArray, RaidLevel, rebuild_job
from repro.sim import RegionEngine, Simulator

CHUNK = 64 * 1024
NARROW_CAP = 320 * CHUNK
WIDE_CAP = 128 * CHUNK


def narrow_rebuild(workers: int) -> float:
    sim = Simulator()
    arr = RaidArray(sim, make_disk_farm(sim, 5, NARROW_CAP),
                    RaidLevel.RAID5, chunk_size=CHUNK)
    arr.mark_failed(0)
    arr.mark_replaced(0)
    job = rebuild_job(arr, 0, region=8)
    RegionEngine(sim).start(job, workers=workers)
    sim.run(until=3600.0)
    assert job.done
    return job.finished_at - job.started_at


def declustered_rebuild(workers: int) -> float:
    sim = Simulator()
    disks = make_disk_farm(sim, 16, WIDE_CAP)
    pool = DeclusteredPool(sim, disks, data_per_stripe=4, chunk_size=CHUNK)
    pool.mark_failed(0)
    job = rebuild_job(pool, 0, region=8)
    RegionEngine(sim).start(job, workers=workers)
    sim.run(until=3600.0)
    assert job.done
    return job.finished_at - job.started_at


def test_ablation_declustering(benchmark):
    def sweep():
        rows = []
        for workers in (1, 4):
            rows.append([workers, round(narrow_rebuild(workers), 2),
                         round(declustered_rebuild(workers), 2)])
        return rows

    rows = run_one(benchmark, sweep)
    print_experiment(
        "A3 (ablation)",
        "rebuild time vs workers: narrow 5-disk RAID5 vs declustered farm",
        format_table(["workers", "narrow RAID5 s", "declustered s"], rows))
    narrow = {r[0]: r[1] for r in rows}
    wide = {r[0]: r[2] for r in rows}
    # Declustering turns workers into speedup; the narrow group does not.
    assert wide[4] < 0.45 * wide[1]
    assert narrow[4] > 0.6 * narrow[1]  # little or negative benefit
