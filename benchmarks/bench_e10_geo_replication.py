"""E10 — §6.2 / §7.2: file-granular geographic replication.

Claims: synchronous replication is viable only over short distances (the
ack carries the WAN round trip); asynchronous replication keeps local ack
latency at any distance, at the cost of a bounded RPO window; and
file-level policy moves a fraction of the bytes that volume-level
mirror-split replication ships.

Reproduces: ack latency vs distance for sync/async; the RPO at site
failure for each mode; WAN bytes for file-level vs volume-level
replication of the same update stream.
"""

from _common import run_one

from repro.baseline import MirrorSplitReplicator
from repro.core import format_table, print_experiment
from repro.fs import FilePolicy, ReplicationMode
from repro.plan import LinkSpec, ScenarioSpec, SiteSpec, WorkloadSpec, plan_storage
from repro.sim import Simulator
from repro.sim.units import gb, gbps, mib

DISTANCES_KM = (100, 1000, 4000)
WRITE = mib(1)


def pair(sim, distance_km):
    """A planner-built two-site WAN (aggregate storage): the declared
    topology replaces the old hand-wired WanNetwork/Site/connect dance."""
    spec = ScenarioSpec(
        name=f"e10-{distance_km}km", site_backing="aggregate",
        sites=(SiteSpec("primary"),
               SiteSpec("remote", (0.0, float(distance_km)))),
        links=(LinkSpec("primary", "remote", bandwidth=gbps(2.5),
                        encrypted=False),),
        workload=WorkloadSpec(clients=0))
    built = plan_storage(spec).build(sim).provision()
    return built, built.site("primary"), built.site("remote")


def ack_latency(distance_km: float, mode: ReplicationMode) -> tuple[float, int]:
    """(mean ack ms, rpo bytes at a failure right after the burst)."""
    sim = Simulator()
    built, a, _b = pair(sim, distance_km)
    rep = built.replicator
    rep.register("/f", FilePolicy(replication_mode=mode,
                                  replication_sites=1), a)
    latencies = []

    def burst():
        for _ in range(8):
            t0 = sim.now
            yield rep.write("/f", WRITE)
            latencies.append(sim.now - t0)

    p = sim.process(burst())
    sim.run(until=p)
    rpo = rep.site_disaster_report("primary")["rpo_bytes"]
    return sum(latencies) / len(latencies), rpo


def test_e10a_sync_vs_async_vs_distance(benchmark):
    def sweep():
        rows = []
        for km in DISTANCES_KM:
            sync_ms, sync_rpo = ack_latency(km, ReplicationMode.SYNC)
            async_ms, async_rpo = ack_latency(km, ReplicationMode.ASYNC)
            rows.append([km, round(sync_ms * 1000, 2),
                         round(async_ms * 1000, 2),
                         sync_rpo, async_rpo])
        return rows

    rows = run_one(benchmark, sweep)
    print_experiment(
        "E10a (§6.2)",
        "write ack latency and failure RPO vs replication distance",
        format_table(["km", "sync ack ms", "async ack ms",
                      "sync RPO bytes", "async RPO bytes"], rows))
    by_km = {r[0]: r for r in rows}
    # Sync ack grows with distance; async does not.
    assert by_km[4000][1] > by_km[100][1] + 25  # >= extra RTT ~39ms
    assert abs(by_km[4000][2] - by_km[100][2]) < 2.0
    # Sync never loses acked data; async exposes a window.
    assert all(r[3] == 0 for r in rows)
    assert all(r[4] > 0 for r in rows)


def test_e10b_file_level_vs_volume_level_traffic(benchmark):
    """A day where 5% of a 100 GB volume changes, only half of it in
    files whose policy wants remote copies."""

    def run():
        volume = gb(100)
        changed = int(volume * 0.05)
        replicated_fraction = 0.5

        sim = Simulator()
        built, a, _b = pair(sim, 1000)
        rep = built.replicator
        rep.register("/important", FilePolicy(
            replication_mode=ReplicationMode.ASYNC, replication_sites=1), a)
        rep.register("/scratch", FilePolicy(), a)

        def day():
            yield rep.write("/important",
                            int(changed * replicated_fraction))
            yield rep.write("/scratch",
                            int(changed * (1 - replicated_fraction)))

        p = sim.process(day())
        sim.run(until=p)
        sim.run(until=sim.now + 3600.0)  # let the async pump drain
        file_level_bytes = rep.replication_bytes

        sim2 = Simulator()
        mirror = MirrorSplitReplicator(sim2, volume_bytes=volume,
                                       wan_bandwidth=gbps(2.5) / 8,
                                       period=3600.0)
        mirror.start()
        sim2.run(until=2 * 3600.0 + mirror.copy_time)
        volume_level_bytes = mirror.cycles * mirror.wan_bytes_per_period()

        # The cited middle ground ([1] SnapMirror): snapshot-delta shipping
        # moves all *changed* pages, important or not.
        from repro.geo import Site as GeoSite
        from repro.geo import SnapshotShippingReplicator, WanNetwork
        from repro.virt import Allocator, DemandMappedDevice, StoragePool
        sim3 = Simulator()
        net3 = WanNetwork(sim3)
        s_a = net3.add_site(GeoSite(sim3, "a", (0.0, 0.0)))
        s_b = net3.add_site(GeoSite(sim3, "b", (0.0, 1000.0)))
        net3.connect(s_a, s_b, bandwidth=gbps(2.5))
        page = mib(1)
        alloc = Allocator([StoragePool("p", 2 * volume, page)])
        dmsd = DemandMappedDevice("vol", volume, alloc)
        dmsd.write(0, volume // 2)  # half the volume is live data
        ship = SnapshotShippingReplicator(sim3, dmsd, net3, s_a, s_b)

        def day3():
            yield from ship.ship_now()          # baseline transfer
            ship.bytes_shipped = 0              # charge only the day's delta
            dmsd.write(0, changed)              # the day's changes
            yield from ship.ship_now()

        p3 = sim3.process(day3())
        sim3.run(until=p3)
        snap_bytes = ship.bytes_shipped
        return file_level_bytes, volume_level_bytes, snap_bytes, mirror

    file_bytes, volume_bytes, snap_bytes, mirror = run_one(benchmark, run)
    print_experiment(
        "E10b (§7.2)",
        "WAN bytes to protect one day's changes to a 100 GB volume",
        format_table(
            ["approach", "WAN GB shipped", "storage multiple"],
            [["file-granular policy (changed+important only)",
              round(file_bytes / gb(1), 2), "1 + replicas"],
             ["snapshot-delta shipping (all changed pages)",
              round(snap_bytes / gb(1), 2), "1 + snapshots"],
             ["volume-level mirror split (everything, every cycle)",
              round(volume_bytes / gb(1), 2),
              f"{mirror.STORAGE_MULTIPLE}x"]]))
    # Mirror-split ships the world; snapshot shipping ships the delta;
    # file-granular policy ships only the important half of the delta.
    assert volume_bytes > 10 * snap_bytes
    assert snap_bytes > 1.5 * file_bytes
    assert volume_bytes > 10 * file_bytes
