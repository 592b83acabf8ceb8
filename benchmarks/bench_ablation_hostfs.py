"""Ablation A4 — §4's two deployment options: host-side GFS vs integrated PFS.

The paper offers two ways to consume the pool: deploy a shared-disk file
system (GFS) on the hosts, or use the file system integrated onto the
controller blades.  Both are built here; this ablation shows *why* the
paper then spends §4 on the integrated option: under cross-host write
sharing the host-side DLM ping-pongs exclusive locks (revoke + dirty
flush per alternation), while the integrated PFS absorbs the same writes
in the coherent controller cache at block granularity.
"""

from _common import BLOCK, make_cache_cluster, run_one

from repro.core import format_table, print_experiment
from repro.fs import HostSharedFileSystem
from repro.plan import AggregateFarm
from repro.sim import Simulator

HOSTS = 4
ROUNDS = 32


def hostfs_run(shared: bool) -> float:
    """Mean per-write latency: 4 hosts writing (shared or private files)."""
    sim = Simulator()
    fs = HostSharedFileSystem(
        sim,
        device_read=lambda n: sim.timeout(0.004),
        device_write=lambda n: sim.timeout(0.004),
        message_rtt=0.0008, dirty_flush_time=0.004)
    latencies = []

    def host(h):
        path = "/shared" if shared else f"/private{h}"
        for _ in range(ROUNDS):
            t0 = sim.now
            yield fs.write(f"h{h}", path)
            latencies.append(sim.now - t0)
            yield sim.timeout(0.002)

    for h in range(HOSTS):
        sim.process(host(h))
    sim.run()
    return sum(latencies) / len(latencies)


def integrated_run(shared: bool) -> float:
    """Same workload through the integrated PFS + coherent cache."""
    sim = Simulator()
    cluster = make_cache_cluster(sim, HOSTS, replication=2,
                                 farm=AggregateFarm(sim))
    cluster.start_destager()
    latencies = []

    def host(h):
        for i in range(ROUNDS):
            # Block-granular striping: concurrent writers touch different
            # blocks of the shared file, so no exclusive-lock ping-pong.
            key = ("shared", i * HOSTS + h) if shared else ("private", h, i)
            t0 = sim.now
            yield cluster.write(h, key)
            latencies.append(sim.now - t0)
            yield sim.timeout(0.002)

    for h in range(HOSTS):
        sim.process(host(h))
    sim.run(until=30.0)
    return sum(latencies) / len(latencies)


def test_ablation_hostfs_vs_integrated(benchmark):
    def sweep():
        return [
            ["private files", round(hostfs_run(False) * 1000, 2),
             round(integrated_run(False) * 1000, 2)],
            ["one shared file", round(hostfs_run(True) * 1000, 2),
             round(integrated_run(True) * 1000, 2)],
        ]

    rows = run_one(benchmark, sweep)
    print_experiment(
        "A4 (§4 ablation)",
        "4 hosts writing: host-side GFS (DLM) vs integrated PFS (coherent cache)",
        format_table(["workload", "host-side GFS ms", "integrated PFS ms"],
                     rows))
    by_workload = {r[0]: r for r in rows}
    _w, gfs_private, pfs_private = by_workload["private files"]
    _w, gfs_shared, pfs_shared = by_workload["one shared file"]
    # Disjoint working sets: GFS lock caching works — latency is just the
    # 4 ms device write, with negligible DLM overhead.  (The integrated
    # PFS is faster still because write-back caching acks before disk.)
    assert gfs_private < 4.8
    # Shared writes: DLM ping-pong dominates; the integrated FS barely moves.
    assert gfs_shared > 3 * gfs_private
    assert pfs_shared < 2 * pfs_private + 0.5
    assert gfs_shared > 3 * pfs_shared
