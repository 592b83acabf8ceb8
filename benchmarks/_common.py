"""Shared builders for the experiment benchmarks.

Each bench_eNN module reproduces one claim from the paper (see DESIGN.md's
experiment index).  These helpers keep workload scale consistent across
benches by delegating to the :mod:`repro.plan` planner: the era-appropriate
controller costs and farm feed live in :class:`~repro.plan.spec.
CacheBenchSpec`'s defaults, and every cache-bench topology here is a
compiled :class:`~repro.plan.planner.CacheBenchPlan` build.
"""

from __future__ import annotations

from repro.cache import CacheCluster
from repro.hardware import ControllerBlade
from repro.plan import AggregateFarm, CacheBenchSpec, plan_cache_bench
from repro.plan.scenario import make_bench_blades
from repro.sim import Simulator
from repro.sim.units import mib, us

#: One controller core moves ~200 MB/s through firmware (checksums, cache
#: management) — the per-controller ceiling that makes blade count matter.
#: (These are the CacheBenchSpec defaults, re-exported for benches that
#: build bespoke topologies.)
CPU_PER_BYTE = CacheBenchSpec().cpu_per_byte
CPU_PER_IO = CacheBenchSpec().cpu_per_io
BLOCK = CacheBenchSpec().block_size



def make_blades(sim: Simulator, count: int, cache_bytes: int = mib(16),
                cores: int = 2) -> list[ControllerBlade]:
    spec = CacheBenchSpec(blade_count=count, cache_bytes=cache_bytes,
                          cpu_cores=cores, replication=1)
    return make_bench_blades(sim, plan_cache_bench(spec))


def make_cache_cluster(sim: Simulator, blade_count: int,
                       replication: int = 2,
                       cache_bytes: int = mib(16),
                       farm: AggregateFarm | None = None) -> CacheCluster:
    spec = CacheBenchSpec(blade_count=blade_count, replication=replication,
                          cache_bytes=cache_bytes)
    return plan_cache_bench(spec).build(sim, farm=farm).cluster


def run_one(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
