"""E17 — partition-tolerant geo writes: fencing + anti-entropy reconcile.

Claim (ROADMAP robustness item, after the paper's §6.2 DR promises): a
WAN partition must never turn into silent divergence.  Writes the home
site acknowledges survive the cut; writes a fenced ex-home attempts on a
stale epoch are *rejected and counted*, never applied; and once the
partition heals, the anti-entropy reconciler walks every divergent
replica and failover fork back to convergence through the same verified
WAN paths ordinary replication uses.

Three parts:

1. **Seeded partition campaign** — a triangle of sites under a random
   PARTITION schedule while closed-loop writers keep writing.  SYNC
   writes crossing a cut fail *visibly* (divergence recorded); ASYNC
   writes ack locally and stall in backlog.  Gate: after the final heal
   and drain, every acknowledged byte is accounted at its home, backlog
   and divergence converge to exactly zero, and the reconciler shipped
   a nonzero resync.

2. **Failover fencing script** — a deterministic SITE_LOSS promotes a
   survivor; the old home's writer retries on its captured (now stale)
   epoch.  Gate: every stale attempt rejected (counted, zero bytes
   applied), the returned ex-home settles as a counted LWW conflict,
   and reconciliation readmits it with zero remaining divergence.

3. **Zero-cost-when-idle** — the same fault-free scenario run with
   ``reconcile`` on and off must produce byte-identical fingerprints
   (the daemon is strictly event-driven), while a partitioned run with
   reconcile on reports a nonzero ``reconcile.sweeps`` metric.

CI gate (``--quick``): all of the above at reduced scale.
"""

import sys

from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.fs import FilePolicy, ReplicationMode
from repro.geo import (DisasterRecoveryCoordinator, GeoReplicator,
                       ReconcileDaemon, Site, WanNetwork)
from repro.plan import ScenarioSpec, run_scenario
from repro.sim import FAULT_EXCEPTIONS, Simulator
from repro.sim.units import gbps, mib

BLOCK = mib(4)
SETTLE = 0.2


def build_ring(sim):
    """Three sites on a triangle (km positions, heterogeneous fibres)::

        a ----2.5G---- b
         \\            /
          1.0G      1.0G
            \\      /
               c
    """
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    c = net.add_site(Site(sim, "c", (3000.0, 1500.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(1.0))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


# -- part 1: the seeded partition campaign ------------------------------------


def run_partition_campaign(seed, horizon, period=0.25):
    """Closed-loop writers under a random PARTITION schedule."""
    sim = Simulator()
    net, a, b, c = build_ring(sim)
    rep = GeoReplicator(sim, net)
    DisasterRecoveryCoordinator(sim, net, rep)
    daemon = ReconcileDaemon(sim, net, rep, settle_delay=SETTLE).start()

    sync = FilePolicy(replication_mode=ReplicationMode.SYNC,
                      replication_sites=2)
    async2 = FilePolicy(replication_mode=ReplicationMode.ASYNC,
                        replication_sites=2)
    files = []
    for site in (a, b, c):
        for label, policy in (("sync", sync), ("async", async2)):
            path = f"/proj/{site.name}/{label}"
            rep.register(path, policy, site)
            files.append(path)

    # Cuts isolate one site at a time; exponential arrivals and repair
    # windows from the plan's per-target substreams (same seed, same
    # campaign).  Faults stop arriving at 60% of the horizon so the last
    # heal always lands inside the run.
    plan = FaultPlan.random(
        seed, horizon * 0.6,
        {"partition": ["a|b,c", "c|a,b"]},
        mtbf=horizon * 0.25, mttr=horizon * 0.08)
    FaultInjector(sim).bind_partitions(net).arm(plan)

    acked = {path: 0 for path in files}
    rejected_writes = {path: 0 for path in files}

    def writer(path):
        while sim.now < horizon:
            try:
                yield rep.write(path, BLOCK)
                acked[path] += BLOCK
            except FAULT_EXCEPTIONS:
                rejected_writes[path] += 1
            yield sim.timeout(period)

    for path in files:
        sim.process(writer(path), name=f"e17.writer.{path}")
    sim.run(until=horizon)
    # Writers have stopped; drain everything left (scheduled heals, pump
    # backlog, reconcile sweeps) to the campaign's true fixed point.
    sim.run()
    daemon.request_sweep()
    sim.run()

    lost = sum(max(0, acked[p] - rep.files[p].size) for p in files)
    stale_replicas = sum(
        1 for p in files for site_name in rep.files[p].copies
        if rep.files[p].site_versions.get(site_name)
        != rep.files[p].version)
    summary = daemon.summary()
    return {
        "partitions": len(plan),
        "acked_mib": sum(acked.values()) / mib(1),
        "failed_writes": sum(rejected_writes.values()),
        "lost_bytes": lost,
        "backlog_bytes": sum(rep.async_backlog.values()),
        "divergent_bytes": rep.total_divergence(),
        "open_forks": len(rep.orphans),
        "stale_replicas": stale_replicas,
        "sweeps": summary["sweeps"],
        "resynced_mib": summary["resynced_bytes"] / mib(1),
    }


# -- part 2: failover fencing + fork settlement -------------------------------


def run_failover_fencing():
    """Deterministic split-brain script: promote, fence, heal, settle."""
    sim = Simulator()
    net, a, b, c = build_ring(sim)
    rep = GeoReplicator(sim, net)
    dr = DisasterRecoveryCoordinator(sim, net, rep)
    daemon = ReconcileDaemon(sim, net, rep, settle_delay=SETTLE).start()
    path = "/proj/key"
    rep.register(path, FilePolicy(replication_mode=ReplicationMode.ASYNC,
                                  replication_sites=2), a)
    out = {}

    def script():
        # Steady state: writes on the granted epoch, backlog drained.
        epoch = rep.leases.epoch(path)
        for _ in range(4):
            yield rep.write(path, BLOCK, epoch=epoch)
        yield sim.timeout(3.0)
        # Fresh acked writes still in backlog when the site burns: they
        # become the orphan fork DR strands at promotion.
        yield rep.write(path, BLOCK, epoch=epoch)
        yield rep.write(path, BLOCK, epoch=epoch)
        report = yield dr.fail_site(a)
        out["new_home"] = report.new_homes[path]
        out["epoch_after"] = rep.leases.epoch(path)
        # The fenced ex-home retries on its captured epoch: every attempt
        # must be rejected before a byte lands.
        attempts = 3
        rejected = 0
        size_before = rep.files[path].size
        for _ in range(attempts):
            try:
                yield rep.write(path, BLOCK, epoch=epoch)
            except FAULT_EXCEPTIONS:
                rejected += 1
        out["stale_attempts"] = attempts
        out["stale_rejected"] = rejected
        out["stale_bytes_applied"] = rep.files[path].size - size_before
        # The surviving lineage moves on (later sim-time than the fork).
        new_epoch = rep.leases.epoch(path)
        yield rep.write(path, BLOCK, epoch=new_epoch)
        yield sim.timeout(3.0)
        # The old home returns: reconciliation must settle the fork as a
        # counted LWW conflict and catch the replica up, not let the
        # stale lineage resume authority.
        a.repair()

    p = sim.process(script(), name="e17.fencing")
    sim.run(until=p)
    sim.run()
    daemon.request_sweep()
    sim.run()
    gf = rep.files[path]
    summary = daemon.summary()
    out.update({
        "conflicts": summary["conflicts"],
        "divergent_bytes": rep.total_divergence(),
        "open_forks": len(rep.orphans),
        "fenced": sorted(rep.leases.fenced_holders(path)),
        "readmitted": "a" in gf.copies
        and gf.site_versions.get("a") == gf.version,
        "stale_counter": rep.leases.stale_writes_rejected,
    })
    return out


# -- part 3: scenario fingerprints --------------------------------------------


def _scenario_doc(name, seed, faults=None, reconcile=False):
    doc = {
        "name": name, "seed": seed, "horizon_s": 60.0,
        "site_backing": "aggregate",
        "sites": [{"name": "a", "position": [0.0, 0.0]},
                  {"name": "b", "position": [0.0, 400.0]},
                  {"name": "c", "position": [3000.0, 1500.0]}],
        "workload": {"clients": 3, "op_bytes": int(mib(1)),
                     "period_s": 0.5, "geo_mode": "sync", "geo_sites": 2},
    }
    if faults is not None:
        doc["faults"] = faults
    if reconcile:
        doc["reconcile"] = True
    return doc


def run_scenarios(seed):
    """The planner-level wiring: reconcile axis + PARTITION fault kind."""
    quiet_off = run_scenario(ScenarioSpec.from_dict(
        _scenario_doc("e17/quiet", seed)))
    quiet_on = run_scenario(ScenarioSpec.from_dict(
        _scenario_doc("e17/quiet", seed, reconcile=True)))
    faults = {"seed": seed, "faults": [
        {"at": 10.0, "kind": "partition", "target": "a|b,c",
         "duration": 8.0},
        {"at": 30.0, "kind": "partition", "target": "c|a,b",
         "duration": 6.0},
    ]}
    cut = run_scenario(ScenarioSpec.from_dict(
        _scenario_doc("e17/cut", seed, faults=faults, reconcile=True)))
    return {
        "quiet_fp_off": quiet_off.fingerprint,
        "quiet_fp_on": quiet_on.fingerprint,
        "cut_failed": cut.failed,
        "cut_sweeps": cut.metrics.get("reconcile.sweeps", 0.0),
        "cut_resynced_mib":
            cut.metrics.get("reconcile.resynced_bytes", 0.0) / mib(1),
    }


# -- gates + reporting --------------------------------------------------------


def check_gates(campaign, fencing, scenarios):
    failures = []
    if campaign["partitions"] < 1:
        failures.append("campaign scheduled no partitions (tune seed/mtbf)")
    if campaign["lost_bytes"] != 0:
        failures.append(
            f"{campaign['lost_bytes']} acknowledged bytes lost")
    for key in ("backlog_bytes", "divergent_bytes", "open_forks",
                "stale_replicas"):
        if campaign[key] != 0:
            failures.append(f"post-heal {key} = {campaign[key]}, want 0")
    if campaign["sweeps"] < 1 or campaign["resynced_mib"] <= 0:
        failures.append("reconciler never shipped a resync "
                        "(campaign produced no divergence?)")
    if fencing["stale_rejected"] != fencing["stale_attempts"]:
        failures.append(
            f"stale-epoch writes: {fencing['stale_rejected']} rejected of "
            f"{fencing['stale_attempts']} attempts")
    if fencing["stale_counter"] != fencing["stale_attempts"]:
        failures.append("stale-write rejections not counted")
    if fencing["stale_bytes_applied"] != 0:
        failures.append(f"{fencing['stale_bytes_applied']} stale bytes "
                        "silently applied")
    if fencing["conflicts"] != 1:
        failures.append(
            f"expected exactly 1 LWW conflict, got {fencing['conflicts']}")
    if fencing["divergent_bytes"] or fencing["open_forks"]:
        failures.append("fencing scenario did not reconcile to zero")
    if fencing["fenced"]:
        failures.append(f"ex-home still fenced after readmit: "
                        f"{fencing['fenced']}")
    if not fencing["readmitted"]:
        failures.append("ex-home not readmitted as a current replica")
    if scenarios["quiet_fp_off"] != scenarios["quiet_fp_on"]:
        failures.append("fault-free fingerprints diverge with reconcile "
                        "on vs off (daemon not zero-cost when idle)")
    if scenarios["cut_failed"] < 1:
        failures.append("partitioned scenario saw no visibly-failed "
                        "writes (cut never bit)")
    if scenarios["cut_sweeps"] < 1:
        failures.append("partitioned scenario reports no reconcile sweeps")
    return failures


def report(campaign, fencing, scenarios):
    from repro.core import format_table, print_experiment
    print_experiment(
        "E17 (partition tolerance)",
        "epoch fencing + divergence tracking + post-heal reconciliation",
        format_table(
            ["metric", "value"],
            [["partitions scheduled", campaign["partitions"]],
             ["acked MiB", round(campaign["acked_mib"], 1)],
             ["visibly-failed writes", campaign["failed_writes"]],
             ["acked bytes lost", campaign["lost_bytes"]],
             ["post-heal divergence B", campaign["divergent_bytes"]],
             ["reconcile sweeps", int(campaign["sweeps"])],
             ["resynced MiB", round(campaign["resynced_mib"], 1)]]))
    print(f"failover fencing: home a->{fencing['new_home']} "
          f"epoch={fencing['epoch_after']} "
          f"rejected={fencing['stale_rejected']}/"
          f"{fencing['stale_attempts']} "
          f"conflicts={fencing['conflicts']} "
          f"readmitted={fencing['readmitted']}")
    same = scenarios["quiet_fp_off"] == scenarios["quiet_fp_on"]
    print(f"scenario axis: quiet fingerprints identical={same} "
          f"cut sweeps={int(scenarios['cut_sweeps'])} "
          f"resynced={scenarios['cut_resynced_mib']:.1f} MiB")


def test_e17_partition(benchmark):
    from _common import run_one

    def run():
        return (run_partition_campaign(17, 120.0),
                run_failover_fencing(), run_scenarios(1717))

    campaign, fencing, scenarios = run_one(benchmark, run)
    report(campaign, fencing, scenarios)
    assert not check_gates(campaign, fencing, scenarios)


def main(argv):
    quick = "--quick" in argv
    horizon = 60.0 if quick else 120.0
    campaign = run_partition_campaign(17, horizon)
    fencing = run_failover_fencing()
    scenarios = run_scenarios(1717)
    report(campaign, fencing, scenarios)
    failures = check_gates(campaign, fencing, scenarios)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
