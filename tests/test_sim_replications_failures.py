"""Tests for replication statistics and cache backing-failure hardening."""

import random

import pytest

from repro.cache import CacheCluster
from repro.hardware import ControllerBlade, Disk, DiskFailedError
from repro.sim import (
    ReplicationSummary,
    Simulator,
    replicate,
    run_replications,
    summarize,
)
from repro.sim.units import mib


class TestReplicationStats:
    def test_summarize_known_values(self):
        s = summarize([10.0, 12.0, 11.0, 13.0, 9.0])
        assert s.mean == pytest.approx(11.0)
        assert s.n == 5
        assert s.low < 11.0 < s.high
        assert 0 < s.half_width < 3.0

    def test_single_replication_infinite_interval(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.half_width == float("inf")

    def test_identical_values_zero_width(self):
        s = summarize([7.0, 7.0, 7.0])
        assert s.half_width == 0.0

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert summarize(values, 0.99).half_width > \
            summarize(values, 0.90).half_width

    def test_replicate_runs_each_seed(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return float(seed)

        s = replicate(run, [1, 2, 3])
        assert seen == [1, 2, 3]
        assert s.mean == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, [])

    def test_str_format(self):
        assert "±" in str(ReplicationSummary(1.0, 0.1, 3, 0.95))


class TestCacheBackingFailures:
    def make_cluster(self, sim, disk):
        blades = [ControllerBlade(sim, i, cache_bytes=mib(1))
                  for i in range(2)]

        def backing_read(key, nbytes):
            return disk.read(0, nbytes)

        def backing_write(key, nbytes):
            return disk.write(0, nbytes)

        return CacheCluster(sim, blades, backing_read, backing_write,
                            replication=1)

    def test_miss_on_failed_backing_fails_cleanly(self):
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)
        disk.fail()
        caught = []

        def proc():
            try:
                yield cluster.read(0, ("v", 1))
            except DiskFailedError:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]
        assert cluster.metrics.counter("read.backing_errors").value == 1

    def test_destage_to_failed_backing_requeues(self):
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)

        def proc():
            yield cluster.write(0, ("v", 1))
            disk.fail()
            result = yield cluster.destage(("v", 1))
            assert result is False
            # Block is still dirty, still queued, nothing was lost.
            assert cluster.directory.entry(("v", 1)).dirty
            assert ("v", 1) in cluster._dirty_pending
            disk.repair()
            result = yield cluster.destage(("v", 1))
            return result

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value is True
        assert cluster.metrics.counter("destage.errors").value == 1

    def test_write_path_unaffected_by_backing_failure(self):
        """Write-back absorbs writes even while the farm is down."""
        sim = Simulator()
        disk = Disk(sim, mib(64))
        cluster = self.make_cluster(sim, disk)
        disk.fail()

        def proc():
            got = yield cluster.write(0, ("v", 2))
            return got

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value == "cached"


def _replication_body(seed: int) -> float:
    """Module-level (hence picklable) body for the parallel runner tests."""
    rng = random.Random(seed)
    sim = Simulator()
    finish = []

    def proc():
        for _ in range(25):
            yield sim.timeout(rng.uniform(0.001, 0.01))
        finish.append(sim.now)

    sim.process(proc())
    sim.run()
    return finish[0]


def _exploding_body(seed: int) -> float:
    """Module-level body that fails for one seed (parallel error test)."""
    if seed == 3:
        raise ValueError(f"model blew up for seed {seed}")
    return float(seed)


class TestParallelReplications:
    def test_parallel_merge_identical_to_serial(self):
        seeds = list(range(1, 9))
        serial = run_replications(_replication_body, seeds, max_workers=1)
        fanned = run_replications(_replication_body, seeds, max_workers=4)
        assert fanned == serial  # same values, same (seed) order

    def test_replicate_parallel_summary_identical(self):
        seeds = [3, 1, 4, 1, 5]
        assert (replicate(_replication_body, seeds, max_workers=len(seeds))
                == replicate(_replication_body, seeds))

    def test_model_error_propagates_from_parallel_run(self):
        # A genuine model error must surface, not trigger the serial
        # fallback (which would re-run the sweep and hide the traceback).
        with pytest.raises(ValueError, match="seed 3"):
            run_replications(_exploding_body, [1, 2, 3, 4], max_workers=2)

    def test_unpicklable_body_falls_back_to_serial(self):
        calls = []

        def local_body(seed):  # closure: not picklable for a process pool
            calls.append(seed)
            return float(seed)

        out = run_replications(local_body, [1, 2, 3], max_workers=2)
        assert out == [1.0, 2.0, 3.0]
        assert calls == [1, 2, 3]  # ran (serially) in seed order
