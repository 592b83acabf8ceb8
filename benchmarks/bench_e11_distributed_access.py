"""E11 — §7.1: distributed data access with migration and prefetch.

Claims: "there would be a network-induced delay while the initial block
of a file is referenced, but other blocks within the file would be
prefetched, allowing local access performance"; hot multi-site files are
auto-replicated; versus the traditional choice of a central data center
where "all data accesses [are] over a network, which significantly
impedes performance."

Reproduces: replay of a multi-site collaboration trace through the
distributed access manager vs a centralized remote data center; mean read
latency and the local-service fraction.
"""

from _common import run_one

from repro.core import format_table, print_experiment
from repro.geo import DistributedAccessManager, Site, WanNetwork
from repro.sim import RngStreams, Simulator, Tally
from repro.sim.units import gbps, mib
from repro.workloads import multi_site_trace

BLOCK = mib(1)
FILES = 12
BLOCKS_PER_FILE = 32
ACCESSES = 600


def build_network(sim):
    net = WanNetwork(sim)
    sites = [net.add_site(Site(sim, name, pos)) for name, pos in
             (("east", (0.0, 0.0)), ("central", (1500.0, 300.0)),
              ("west", (3800.0, 600.0)))]
    net.connect(sites[0], sites[1], bandwidth=gbps(2.5))
    net.connect(sites[1], sites[2], bandwidth=gbps(2.5))
    net.connect(sites[0], sites[2], bandwidth=gbps(1.0))
    return net, sites


def trace():
    return multi_site_trace(["east", "central", "west"], FILES,
                            BLOCKS_PER_FILE, ACCESSES,
                            RngStreams(21).fresh("collab"), locality=0.75)


def distributed_run():
    sim = Simulator()
    net, sites = build_network(sim)
    dam = DistributedAccessManager(sim, net, block_size=BLOCK,
                                   auto_replicate_threshold=4,
                                   prefetch_depth=8)
    # Files' home sites follow the trace's affinity: register at first site.
    records = trace()
    first_site = {}
    for rec in records:
        first_site.setdefault(rec.path, rec.site)
    for path, home in first_site.items():
        dam.register(path, BLOCKS_PER_FILE * BLOCK,
                     net.sites[home])
    latency = Tally()

    def replay():
        last = 0.0
        for rec in records:
            yield sim.timeout(max(0.0, rec.time - last))
            last = rec.time
            t0 = sim.now
            yield dam.read(rec.path, rec.block, net.sites[rec.site])
            latency.record(sim.now - t0)

    p = sim.process(replay())
    sim.run(until=p)
    local = dam.local_reads
    remote = dam.remote_reads
    return latency.mean(), local / (local + remote)


def centralized_run():
    """Everything lives at 'central'; every non-central access pays WAN."""
    sim = Simulator()
    net, sites = build_network(sim)
    center = net.sites["central"]
    latency = Tally()
    records = trace()
    local_count = 0

    def replay():
        nonlocal local_count
        last = 0.0
        for rec in records:
            yield sim.timeout(max(0.0, rec.time - last))
            last = rec.time
            t0 = sim.now
            reader = net.sites[rec.site]
            if reader is center:
                yield center.store_read(BLOCK)
                local_count += 1
            else:
                yield net.transfer(center, reader, BLOCK)
            latency.record(sim.now - t0)

    p = sim.process(replay())
    sim.run(until=p)
    return latency.mean(), local_count / len(records)


def test_e11_distributed_access(benchmark):
    def run():
        return distributed_run(), centralized_run()

    (dist_ms, dist_local), (cent_ms, cent_local) = run_one(benchmark, run)
    print_experiment(
        "E11 (§7.1)",
        "multi-site collaboration trace: migrating copies vs central store",
        format_table(
            ["deployment", "mean read ms", "served locally"],
            [["NetStorage (migrate + prefetch + auto-replicate)",
              round(dist_ms * 1000, 2), f"{dist_local:.0%}"],
             ["centralized data center", round(cent_ms * 1000, 2),
              f"{cent_local:.0%}"]]))
    # Migration turns most reads local and beats the central store.
    assert dist_local > 0.8
    assert cent_local < 0.5
    assert dist_ms < cent_ms
