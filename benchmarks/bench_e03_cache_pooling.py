"""E3 — §2.2 / §6.3: the pooled coherent cache eliminates hot spots.

Claim: "traditional storage technologies develop 'hot spots' in cache and
processors on controllers, which gate access to 'hot data', while other
controllers in the data center remain relatively idle"; in the proposed
system "there would be no cache or controller 'hot spots'".

Reproduces: mean read latency and controller-load imbalance under Zipf
hot-data traffic, pooled coherent cache vs statically partitioned caches,
sweeping the skew.
"""

from _common import BLOCK, make_blades, make_cache_cluster, run_one

from repro.baseline import PartitionedCacheArray
from repro.cluster import ClusterMembership, LoadBalancer
from repro.core import format_table, print_experiment
from repro.plan import AggregateFarm
from repro.sim import RngStreams, Simulator
from repro.sim.units import mib
from repro.workloads import HotspotWorkload, ZipfKeyGenerator

BLADES = 4
POPULATION = 2048
ARRIVAL_RATE = 12_000.0   # req/s: near one controller's saturation
DURATION = 1.0
SKEWS = (0.0, 0.8, 1.6)


def pooled_run(skew: float) -> tuple[float, float]:
    sim = Simulator()
    cluster = make_cache_cluster(sim, BLADES, replication=1,
                                 cache_bytes=mib(32),
                                 farm=AggregateFarm(sim, bandwidth=2.4e9))
    membership = ClusterMembership(sim, list(cluster.blades.values()))
    balancer = LoadBalancer(membership)

    def issue(key):
        blade = balancer.pick()
        balancer.start(blade)
        ev = cluster.read(blade, key)
        ev.add_callback(lambda _e: balancer.finish(blade))
        return ev

    streams = RngStreams(11)
    workload = HotspotWorkload(
        sim, ZipfKeyGenerator(POPULATION, skew, streams.fresh("keys")),
        issue, ARRIVAL_RATE, DURATION, streams.fresh("arrivals"))
    workload.run()
    sim.run()
    return workload.latency.mean(), balancer.imbalance()


def partitioned_run(skew: float) -> tuple[float, float]:
    sim = Simulator()
    blades = make_blades(sim, BLADES, cache_bytes=mib(32))
    farm = AggregateFarm(sim, bandwidth=2.4e9)
    array = PartitionedCacheArray(sim, blades, farm.read, block_size=BLOCK)
    streams = RngStreams(11)
    workload = HotspotWorkload(
        sim, ZipfKeyGenerator(POPULATION, skew, streams.fresh("keys")),
        array.read, ARRIVAL_RATE, DURATION, streams.fresh("arrivals"))
    workload.run()
    sim.run()
    return workload.latency.mean(), array.imbalance()


def sweep():
    rows = []
    for skew in SKEWS:
        pooled_lat, pooled_imb = pooled_run(skew)
        part_lat, part_imb = partitioned_run(skew)
        rows.append([skew, round(pooled_lat * 1000, 2),
                     round(part_lat * 1000, 2),
                     round(pooled_imb, 2), round(part_imb, 2)])
    return rows


def test_e03_pooled_cache_eliminates_hot_spots(benchmark):
    rows = run_one(benchmark, sweep)
    print_experiment(
        "E3 (§2.2)",
        "Zipf hot-data reads: pooled coherent cache vs partitioned caches",
        format_table(["zipf skew", "pooled ms", "partitioned ms",
                      "pooled imbalance", "partitioned imbalance"], rows))
    by_skew = {r[0]: r for r in rows}
    # Uniform traffic: both fine, similar latency.
    _, pooled_u, part_u, pooled_imb_u, part_imb_u = by_skew[0.0]
    assert pooled_imb_u < 1.3 and part_imb_u < 1.5
    # Heavy skew: the partitioned design's hot controller melts down.
    _, pooled_h, part_h, pooled_imb_h, part_imb_h = by_skew[1.6]
    assert part_imb_h > 1.8          # one controller takes the beating
    assert pooled_imb_h < 1.3        # load balancing spreads it
    assert part_h > 3 * pooled_h     # latency meltdown vs steady service
