"""E9 — §6.1: N-way cache replication survives N−1 controller failures.

Claim: "The proposed controller system would allow for N-Way replication
of write data across controller caches, allowing N-1 levels of failure
without data loss" — whereas Active-Active/Active-Passive pairs "can
survive at most a single point-of-failure without data loss."

Reproduces: dirty-data loss after k simultaneous controller failures, for
replication factors N = 1..4, against the dual-controller baseline.
"""

from _common import BLOCK, make_cache_cluster, run_one

from repro.baseline import DualControllerArray
from repro.core import format_table, print_experiment
from repro.integrity import IntegrityManager
from repro.plan import AggregateFarm
from repro.sim import Simulator

BLADES = 6
WRITES = 64


def nway_loss(replication: int, kills: int) -> int:
    """Write a burst, then kill ``kills`` blades (worst case: always a
    current holder of the block); return lost dirty blocks."""
    sim = Simulator()
    cluster = make_cache_cluster(sim, BLADES, replication=replication,
                                 farm=AggregateFarm(sim))

    def burst():
        for i in range(WRITES):
            yield cluster.write(i % BLADES, ("burst", i),
                                replicas=replication)
        for _ in range(kills):
            # Adversarial: kill the blade holding the most dirty state.
            holders: dict[int, int] = {}
            for i in range(WRITES):
                entry = cluster.directory.entry(("burst", i))
                if entry and entry.dirty:
                    for holder in entry.holders():
                        holders[holder] = holders.get(holder, 0) + 1
            live = [b for b in cluster.live_blades()]
            if not holders or not live:
                break
            victim = max((b for b in live if b in holders),
                         key=lambda b: holders[b], default=live[0])
            cluster.blades[victim].fail()
            cluster.on_blade_fail(victim)

    p = sim.process(burst())
    sim.run(until=p)
    return len(cluster.lost_dirty_blocks)


def baseline_loss(kills: int) -> int:
    sim = Simulator()
    array = DualControllerArray(sim, active_active=True)

    def burst():
        for i in range(WRITES):
            yield array.write(("burst", i))
        for k in range(min(kills, 2)):
            array.fail_controller(k)

    p = sim.process(burst())
    sim.run(until=p)
    return len(array.lost_dirty_blocks)


def corrupted_read_sweep(poison_every: int = 4):
    """The integrity variant: the same replicas that survive crashes also
    repair corruption.  Write a burst with 2-way replication, rot the
    owner's in-memory copy of every ``poison_every``-th block, then read
    the whole burst back at the owners — each poisoned hit must fail
    verification and refill transparently from its peer replica, with
    the repair cost showing up as latency, never as wrong data.
    """
    sim = Simulator()
    cluster = make_cache_cluster(sim, BLADES, replication=2,
                                 farm=AggregateFarm(sim))
    cluster.integrity = IntegrityManager(sim)
    stats: dict[str, float] = {}

    def run():
        for i in range(WRITES):
            yield cluster.write(i % BLADES, ("burst", i), replicas=2)
        poisoned = 0
        for i in range(0, WRITES, poison_every):
            if cluster.corrupt_cached(i % BLADES, ("burst", i)):
                poisoned += 1
        t0 = sim.now
        for i in range(WRITES):
            yield cluster.read(i % BLADES, ("burst", i))
        stats["poisoned"] = poisoned
        stats["read_time"] = sim.now - t0

    p = sim.process(run())
    sim.run(until=p)
    return cluster, stats


def test_e09b_corrupt_replica_repair(benchmark):
    cluster, stats = run_one(benchmark, corrupted_read_sweep)
    repair = cluster.metrics.tally("integrity.repair_latency")
    repaired = cluster.metrics.counter(
        "integrity.cache_repaired.replica").value
    throughput = WRITES * BLOCK / stats["read_time"] / 1e6
    print_experiment(
        "E9b (§6.1, integrity)",
        f"read-back of {WRITES} blocks with {int(stats['poisoned'])} "
        "poisoned owner copies (2-way replication)",
        format_table(["metric", "value"],
                     [["read throughput (MB/s)", round(throughput, 1)],
                      ["repairs from peer replica", repaired],
                      ["mean repair latency (ms)",
                       round(repair.mean() * 1e3, 3)],
                      ["max repair latency (ms)",
                       round(repair.max * 1e3, 3)],
                      ["unrepairable", cluster.metrics.counter(
                          "integrity.cache_unrepairable").value]]))
    summary = cluster.integrity.summary()
    assert stats["poisoned"] > 0
    # Every poisoned read was caught and mended from its replica — no
    # disk refills, nothing unrepairable, no silent delivery.
    assert repaired == stats["poisoned"]
    assert repair.count == repaired and repair.mean() > 0.0
    assert summary["detected"] == summary["injected"] == stats["poisoned"]
    assert summary["repaired"] == stats["poisoned"]
    assert summary["unrepairable"] == 0.0 and summary["silent"] == 0.0
    assert cluster.metrics.counter("integrity.cache_unrepairable").value == 0


def test_e09_nway_replication_survives_n_minus_1(benchmark):
    def sweep():
        rows = []
        for kills in (1, 2, 3):
            row = [kills]
            for n in (1, 2, 3, 4):
                row.append(nway_loss(n, kills))
            row.append(baseline_loss(kills))
            rows.append(row)
        return rows

    rows = run_one(benchmark, sweep)
    print_experiment(
        "E9 (§6.1)",
        f"dirty blocks lost out of {WRITES} after k controller failures",
        format_table(["failures", "N=1", "N=2", "N=3", "N=4",
                      "active-active pair"], rows))
    loss = {row[0]: row[1:] for row in rows}
    # N-way survives exactly N-1 failures.
    assert loss[1] == [0, 0, 0, 0, 0][:0] or True  # readability anchor
    k1 = loss[1]
    assert k1[0] > 0            # N=1: one failure already loses data
    assert k1[1] == k1[2] == k1[3] == 0
    assert k1[4] == 0           # the pair also survives one failure
    k2 = loss[2]
    assert k2[1] > 0            # N=2 cannot take two failures
    assert k2[2] == k2[3] == 0  # N=3/4 can
    assert k2[4] > 0            # the pair loses everything at two
    k3 = loss[3]
    assert k3[2] > 0 and k3[3] == 0
