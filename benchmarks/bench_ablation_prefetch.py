"""Ablation A2 — remote-access prefetch depth (§7.1 design knob).

How aggressively should the first remote touch stage the rest of the
file?  Depth 0 leaves every block to pay the WAN; very deep prefetch
wastes WAN bytes on files the scientist abandons.  The sweep replays a
sequential remote reading pattern with think time at several depths.
"""

from _common import run_one

from repro.core import format_table, print_experiment
from repro.geo import DistributedAccessManager, Site, WanNetwork
from repro.sim import Simulator, Tally
from repro.sim.units import gbps, mib

BLOCK = mib(1)
FILE_BLOCKS = 24
THINK = 0.1


def run_depth(depth: int) -> tuple[float, float]:
    sim = Simulator()
    net = WanNetwork(sim)
    home = net.add_site(Site(sim, "home", (0.0, 0.0)))
    far = net.add_site(Site(sim, "far", (0.0, 3000.0)))
    net.connect(home, far, bandwidth=gbps(1.0))
    # selection="static" keeps the cost model's WAN-pain migration trigger
    # out of the sweep — this ablation isolates prefetch depth, so every
    # block must keep paying the WAN at depth 0 (see docs/replica_selection.md).
    dam = DistributedAccessManager(sim, net, block_size=BLOCK,
                                   auto_replicate_threshold=10**9,
                                   prefetch_depth=max(depth, 1),
                                   selection="static")
    if depth == 0:
        dam.prefetch_depth = 0  # detector runs but stages nothing
    dam.register("/seq", FILE_BLOCKS * BLOCK, home)
    latency = Tally()

    def reader():
        for block in range(FILE_BLOCKS):
            t0 = sim.now
            yield dam.read("/seq", block, far)
            latency.record(sim.now - t0)
            yield sim.timeout(THINK)

    p = sim.process(reader())
    sim.run(until=p)
    local = dam.local_reads
    return latency.mean(), local / FILE_BLOCKS


def test_ablation_prefetch_depth(benchmark):
    def sweep():
        rows = []
        for depth in (0, 2, 8, 23):
            mean_ms, local_frac = run_depth(depth)
            rows.append([depth, round(mean_ms * 1000, 2),
                         f"{local_frac:.0%}"])
        return rows

    rows = run_one(benchmark, sweep)
    print_experiment(
        "A2 (ablation)",
        "sequential remote reading: prefetch depth vs latency",
        format_table(["prefetch depth", "mean read ms", "served locally"],
                     rows))
    by_depth = {r[0]: r[1] for r in rows}
    # No prefetch: every block pays the WAN.  Deeper prefetch converges on
    # one remote touch plus local reads.
    assert by_depth[0] > 3 * by_depth[8]
    assert by_depth[23] <= by_depth[2] + 0.5
