"""E16 — cost-model replica selection for geo reads (Globus-style).

Claim (ROADMAP item 2, after *Replica Selection in the Globus Data
Grid*): choosing which replica serves a remote read from **history-driven
cost prediction** (observed WAN throughput EWMAs + site load +
staleness) beats both the static nearest-by-fibre-distance rule and a
random pick — on tail read latency *and* total WAN bytes moved.

Reproduces: a reader site whose euclidean-nearest replica is only
reachable through a two-hop detour (every byte crosses two fibres),
while a farther holder sits one fat hop away.  The static policy sorts
by straight-line distance and pays the detour forever; the cost model
prices routes by what the WAN actually delivers and takes the direct
pipe.  A site-loss campaign then downs the cost model's preferred holder
mid-run: selection must fall through to surviving candidates with zero
failed reads.

CI gate (``--quick``): cost ≤ static on p99 read latency AND on WAN
bytes, and the fault campaign completes with no failed reads.
"""

import sys

from repro.faults import FaultInjector, FaultPlan
from repro.geo import DistributedAccessManager, Site, WanNetwork
from repro.sim import RngStreams, Simulator, Tally
from repro.sim.units import gbps, mib

BLOCK = mib(1)
FILES = 8
BLOCKS_PER_FILE = 16
POLICIES = ("static", "random", "cost")


def build_network(sim):
    """The euclidean-vs-topological mismatch (distances in km).

    ::

        reader ----2400, 2.5G---- far ----2100, 1.0G---- near
           \\                      |
            `----3600, 0.622G--- home (via far: 1200, 2.5G)

    ``near`` is 300 km from ``reader`` on the map but its only fibre
    runs through ``far`` — the static distance sort can't see that.
    """
    net = WanNetwork(sim)
    reader = net.add_site(Site(sim, "reader", (0.0, 0.0)))
    near = net.add_site(Site(sim, "near", (0.0, 300.0)))
    far = net.add_site(Site(sim, "far", (2400.0, 0.0)))
    home = net.add_site(Site(sim, "home", (2400.0, 1200.0)))
    net.connect(reader, far, bandwidth=gbps(2.5))
    net.connect(far, near, bandwidth=gbps(1.0))
    net.connect(far, home, bandwidth=gbps(2.5))
    # Thin disaster spare: keeps the reader attached when `far` burns.
    net.connect(reader, home, bandwidth=gbps(0.622))
    return net, reader, near, far, home


def read_schedule(accesses, seed=16):
    """(path, block) pairs, uniformly scattered, deterministic by seed."""
    rng = RngStreams(seed).fresh("e16")
    return [(f"/proj/f{int(rng.integers(FILES))}",
             int(rng.integers(BLOCKS_PER_FILE)))
            for _ in range(accesses)]


def run_policy(policy, accesses, faults=False):
    """Replay the schedule under one policy; return the scorecard."""
    sim = Simulator()
    net, reader, near, far, home = build_network(sim)
    dam = DistributedAccessManager(sim, net, block_size=BLOCK,
                                   auto_replicate_threshold=10 ** 6,
                                   prefetch_depth=1, selection=policy,
                                   selection_seed=16)
    for i in range(FILES):
        fr = dam.register(f"/proj/f{i}", BLOCKS_PER_FILE * BLOCK, home=home)
        # Pre-seeded replicas: the read path chooses among three holders.
        for site in ("near", "far"):
            fr.resident[site] = set(range(fr.block_count))
    if faults:
        injector = FaultInjector(sim)
        injector.bind_site(far)
        # Down the cost model's preferred holder mid-run, twice.
        plan = (FaultPlan().add(2.0, "site_loss", "far", duration=1.5)
                .add(6.0, "site_loss", "far", duration=1.5))
        injector.arm(plan)
    baseline = sum(link.total_bytes for _u, _v, link in net.links())
    latency = Tally()
    failed = 0

    def replay():
        nonlocal failed
        for path, block in read_schedule(accesses):
            yield sim.timeout(0.02)
            t0 = sim.now
            try:
                yield dam.read(path, block, reader)
            except Exception:
                failed += 1
                continue
            latency.record(sim.now - t0)

    p = sim.process(replay())
    sim.run(until=p)
    wan_bytes = sum(link.total_bytes
                    for _u, _v, link in net.links()) - baseline
    # Bytes on the disaster spare prove rerouting: nothing chooses the
    # thin reader<->home fibre while `far` is up.
    spare = net.link("reader", "home").total_bytes
    return {"policy": policy,
            "p99_ms": latency.percentile(99) * 1000,
            "mean_ms": latency.mean() * 1000,
            "wan_mib": wan_bytes / mib(1),
            "failed": failed,
            "spare_mib": spare / mib(1),
            "rerouted": dam.rerouted}


def run_comparison(accesses):
    return [run_policy(policy, accesses) for policy in POLICIES]


def check_gates(rows, campaigns, quick):
    by = {row["policy"]: row for row in rows}
    cost, static, rand = by["cost"], by["static"], by["random"]
    failures = []
    if cost["p99_ms"] > static["p99_ms"]:
        failures.append("cost p99 worse than static")
    if cost["wan_mib"] > static["wan_mib"]:
        failures.append("cost WAN bytes worse than static")
    if not quick:
        if cost["p99_ms"] >= rand["p99_ms"]:
            failures.append("cost p99 not better than random")
        if cost["wan_mib"] >= rand["wan_mib"]:
            failures.append("cost WAN bytes not better than random")
    for row in campaigns:
        if row["failed"] != 0:
            failures.append(f"{row['policy']} campaign had "
                            f"{row['failed']} failed reads")
    cost_camp = next(r for r in campaigns if r["policy"] == "cost")
    static_camp = next(r for r in campaigns if r["policy"] == "static")
    if cost_camp["spare_mib"] <= 0:
        failures.append("cost campaign never rerouted to the spare")
    # Static ranks blind (distance only): the downed holder's unreachable
    # neighbour stays first, so its survival proves per-candidate fallback.
    if static_camp["rerouted"] < 1:
        failures.append("static campaign never fell back past a "
                        "partitioned candidate")
    return failures


def report(rows, campaigns):
    from repro.core import format_table, print_experiment
    print_experiment(
        "E16 (replica selection)",
        "history-driven cost model vs static distance sort vs random",
        format_table(
            ["policy", "p99 read ms", "mean read ms", "WAN MiB"],
            [[r["policy"], round(r["p99_ms"], 2), round(r["mean_ms"], 2),
              round(r["wan_mib"], 1)] for r in rows]))
    for row in campaigns:
        print(f"site-down campaign ({row['policy']}): "
              f"failed={row['failed']} rerouted={row['rerouted']} "
              f"spare_mib={row['spare_mib']:.1f}")


def run_campaigns(accesses):
    return [run_policy(policy, accesses, faults=True)
            for policy in ("cost", "static")]


def test_e16_replica_selection(benchmark):
    from _common import run_one

    def run():
        return run_comparison(400), run_campaigns(400)

    rows, campaigns = run_one(benchmark, run)
    report(rows, campaigns)
    assert not check_gates(rows, campaigns, quick=False)


def main(argv):
    quick = "--quick" in argv
    accesses = 150 if quick else 400
    rows = run_comparison(accesses)
    campaigns = run_campaigns(accesses)
    report(rows, campaigns)
    failures = check_gates(rows, campaigns, quick=quick)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
