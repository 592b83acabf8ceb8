"""Ablation A6 — write-back destage concurrency (§6.1's lock window).

Replicated dirty blocks are "locked in cache only long enough for the
data to be asynchronously written to disk": the faster the destagers
drain, the less cache is pinned and the sooner replicas release.  Too few
workers let bursts pile up pinned cache; the sweep measures both the
drain time of a burst and the peak pinned-block count per worker count.
"""

from _common import BLOCK, make_cache_cluster, run_one

from repro.core import format_table, print_experiment
from repro.plan import AggregateFarm
from repro.sim import Simulator

BURST = 192  # dirty blocks written as fast as the cache absorbs


def test_ablation_destage_concurrency(benchmark):
    def sweep():
        rows = []
        for workers in (1, 2, 4, 8):
            sim = Simulator()
            cluster = make_cache_cluster(sim, 4, replication=2,
                                         farm=AggregateFarm(
                                             sim, bandwidth=400e6,
                                             latency=0.004))
            cluster.start_destager(concurrency=workers)
            peak = [0]
            finished = [None]

            def burst(cl=cluster, pk=peak, fin=finished):
                for i in range(BURST):
                    yield cl.write(i % 4, ("burst", i))
                    pinned = sum(c.pinned_count
                                 for c in cl.caches.values())
                    pk[0] = max(pk[0], pinned)
                while cl._dirty_pending or cl._dirty_queue.items:
                    yield cl.sim.timeout(0.005)
                fin[0] = cl.sim.now

            p = sim.process(burst())
            sim.run(until=p)
            rows.append([workers, round(finished[0], 3), peak[0]])
        return rows

    rows = run_one(benchmark, sweep)
    print_experiment(
        "A6 (§6.1 ablation)",
        f"draining a {BURST}-block write burst: destage workers vs lock window",
        format_table(["destage workers", "drain s", "peak pinned blocks"],
                     rows))
    drain = {r[0]: r[1] for r in rows}
    # More destagers shrink the replica lock window...
    assert drain[4] < drain[1]
    # ...until the farm bandwidth becomes the floor.
    assert drain[8] >= BURST * BLOCK / 400e6 * 0.8
