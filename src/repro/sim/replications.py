"""Replication statistics: means and confidence intervals across seeds.

Experiment benches that involve stochastic workloads (failure campaigns,
Zipf traffic) report means over several seeded replications; this module
provides the Student-t interval so EXPERIMENTS.md can state uncertainty
honestly instead of single-run point estimates.

Wide sweeps (many seeds x expensive runs) can fan out across cores with
``replicate(..., max_workers=N)`` / ``run_replications(..., max_workers=N)``.
Each replication still runs a fully deterministic simulation for its seed,
and results are merged back in seed order, so the parallel runner produces
byte-for-byte the same summary as the serial one.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and confidence half-width over independent replications."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.2g} ({self.n} reps)"


def summarize(values: Sequence[float],
              confidence: float = 0.95) -> ReplicationSummary:
    """Student-t confidence interval over replication outputs."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one replication")
    mean = float(arr.mean())
    if arr.size == 1:
        return ReplicationSummary(mean, float("inf"), 1, confidence)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return ReplicationSummary(mean, 0.0, int(arr.size), confidence)
    # scipy costs about half a second to import and only this line uses
    # it, so it loads here rather than with the package.
    from scipy import stats

    t = float(stats.t.ppf(0.5 + confidence / 2.0, arr.size - 1))
    return ReplicationSummary(mean, t * sem, int(arr.size), confidence)


def run_replications(run: Callable[[int], float], seeds: Sequence[int],
                     max_workers: int | None = None) -> list[float]:
    """Run ``run(seed)`` for every seed, returning outputs in seed order.

    ``max_workers`` > 1 fans the replications out over a process pool
    (``run`` must be picklable, i.e. a module-level function).  The merge is
    deterministic: outputs come back ordered by their position in ``seeds``
    regardless of which worker finished first, so serial and parallel runs
    are interchangeable.  If a pool cannot be started (restricted sandboxes,
    missing OS primitives), the sweep silently degrades to serial — the
    results are identical either way, only the wall time differs.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if max_workers is None or max_workers <= 1 or len(seeds) == 1:
        return [run(seed) for seed in seeds]
    workers = min(max_workers, len(seeds))
    try:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
    except (ImportError, OSError, ValueError):
        return [run(seed) for seed in seeds]
    try:
        # Pool.map preserves input order: merged results are seed-ordered.
        return pool.map(run, seeds)
    except (pickle.PicklingError, AttributeError, OSError):
        # Unpicklable ``run`` callables (closures, lambdas) and worker
        # start-up failures degrade to the serial path.  Anything else is a
        # genuine model error from inside run(seed): let it propagate with
        # its traceback instead of silently re-running the whole sweep.
        return [run(seed) for seed in seeds]
    finally:
        pool.close()
        pool.join()


def replicate(run: Callable[[int], float], seeds: Sequence[int],
              confidence: float = 0.95,
              max_workers: int | None = None) -> ReplicationSummary:
    """Run ``run(seed)`` for each seed and summarize the outputs."""
    if not seeds:
        raise ValueError("need at least one seed")
    return summarize(run_replications(run, seeds, max_workers=max_workers),
                     confidence)
