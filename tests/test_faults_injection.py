"""FaultInjector end-to-end: determinism, recovery tracking, rebuilds.

The acceptance bar for the framework: campaigns are kernel events, so a
seeded run with a fault plan reproduces its trace byte for byte, and an
*empty* plan reproduces the pre-framework trace exactly.
"""

import pytest

from repro import (FaultKind, FaultPlan, NetStorageSystem, RetryPolicy,
                   Simulator, SystemConfig)
from repro.faults import FaultInjector
from repro.obs.telemetry import HealthState
from repro.sim.faults import FAULT_EXCEPTIONS
from repro.sim.units import gbps, mib


def _build(seed: int = 11):
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(64),
        seed=seed, observability=True))
    system.start()
    system.create("/projects/results.h5")
    return sim, system


def _run_workload(sim, system, rounds: int = 8, until: float = 200.0):
    """Periodic writes+reads that tolerate injected faults (clients see
    failed I/O events, not crashes)."""
    def client():
        for _ in range(rounds):
            try:
                yield system.write("/projects/results.h5", 0, mib(1))
                yield system.read("/projects/results.h5", 0, mib(1))
            except FAULT_EXCEPTIONS:
                pass
            yield sim.timeout(20.0)

    sim.process(client())
    sim.run(until=until)


CRASH_PLAN_JSON = None  # set lazily by _crash_plan for reuse across tests


def _crash_plan() -> FaultPlan:
    return (FaultPlan()
            .add(15.0, FaultKind.BLADE_CRASH, "blade1", duration=30.0)
            .add(55.0, FaultKind.SLOW_NODE, "blade2", duration=20.0,
                 severity=4.0)
            .add(90.0, FaultKind.TRANSIENT_IO, "cache", severity=2.0))


class TestDeterminism:
    def _trace(self, plan: FaultPlan | None):
        sim, system = _build()
        if plan is not None:
            system.attach_faults(plan)
        _run_workload(sim, system)
        return system.obs.tracer.to_json()

    def test_empty_plan_matches_unfaulted_run(self):
        # Binding + arming an empty campaign must be invisible: same
        # events, same timings, byte for byte.
        assert self._trace(FaultPlan()) == self._trace(None)

    def test_plan_survives_json_round_trip_identically(self):
        clone = FaultPlan.from_json(_crash_plan().to_json())
        assert self._trace(clone) == self._trace(_crash_plan())

    def test_timeline_is_reproducible(self):
        def timeline():
            sim, system = _build()
            inj = system.attach_faults(_crash_plan())
            _run_workload(sim, system)
            return inj.timeline

        assert timeline() == timeline()


class TestBladeRecovery:
    def test_crash_and_repair_drive_the_tracker(self):
        sim, system = _build()
        plan = FaultPlan().add(20.0, FaultKind.BLADE_CRASH, "blade1",
                               duration=30.0)
        inj = system.attach_faults(plan)
        _run_workload(sim, system)

        tr = inj.trackers["blade1"]
        assert tr.failures == 1
        assert tr.state is HealthState.UP
        assert tr.repair_times == [pytest.approx(30.0)]
        assert tr.mttr() == pytest.approx(30.0)
        # 30 s down out of 200 s of run.
        assert tr.availability() == pytest.approx(1.0 - 30.0 / 200.0)
        assert inj.mttr() == pytest.approx(30.0)
        assert inj.availability() == pytest.approx(1.0 - 30.0 / 200.0)
        # The cache was told about the rejoin (cold-cache rejoin counter).
        assert system.cache.metrics.counter(
            "failure.blade_repairs").value == 1
        assert system.cluster.blades[1].is_up

    def test_slow_node_degrades_without_downtime(self):
        sim, system = _build()
        plan = FaultPlan().add(10.0, FaultKind.SLOW_NODE, "blade2",
                               duration=40.0, severity=4.0)
        inj = system.attach_faults(plan)
        _run_workload(sim, system)
        tr = inj.trackers["blade2"]
        assert tr.failures == 0
        assert tr.availability() == 1.0  # gray failure: serving, slowly
        states = [s for _, s in tr.transitions]
        assert states == [HealthState.DEGRADED, HealthState.UP]
        assert system.cluster.blades[2].slow_factor == 1.0  # cleared

    def test_transient_io_burst_is_retried_and_absorbed(self):
        sim, system = _build()
        system.cache.retry_policy = RetryPolicy(attempts=4, base_delay=0.002)
        plan = FaultPlan().add(5.0, FaultKind.TRANSIENT_IO, "cache",
                               severity=2.0)
        system.attach_faults(plan)

        outcome = []

        def client():
            yield sim.timeout(6.0)
            # Cold range: the miss path hits the (faulted) backing store.
            got = yield system.read("/projects/results.h5", 0, mib(1))
            outcome.append(got)

        sim.process(client())
        sim.run(until=60.0)
        assert outcome == [mib(1)]  # read survived the burst
        retries = system.obs.log.records(kind="retry",
                                         component="cache.pool")
        assert len(retries) >= 1


class TestDiskRecovery:
    def test_disk_fault_starts_distributed_rebuild_to_completion(self):
        sim, system = _build()
        plan = FaultPlan().add(10.0, FaultKind.DISK_FAIL, "disk3")
        inj = system.attach_faults(plan)
        _run_workload(sim, system, until=3600.0)

        assert system.pool.failed == {3}
        tr = inj.trackers["disk3"]
        assert tr.failures == 1
        # Declustering keeps serving through reconstruction: the outage
        # closes the instant the rebuild is running, so the FAILED window
        # is zero-length and the RECOVERING window measures rebuild time.
        states = [s for _, s in tr.transitions]
        assert states == [HealthState.FAILED, HealthState.RECOVERING,
                          HealthState.UP]
        assert tr.repair_times == [pytest.approx(0.0)]
        recovering_at = tr.transitions[1][0]
        up_at = tr.transitions[2][0]
        assert up_at > recovering_at  # the rebuild took real time
        # The disk is UP the moment its rebuild job finishes.
        job = system.cluster.rebuild_coordinator._job
        assert job.done and up_at == job.finished_at

    def test_blade_crash_mid_rebuild_does_not_corrupt_the_job(self):
        # A controller dying during a distributed rebuild interrupts its
        # worker; the region returns to the queue and a survivor finishes
        # it.  The job's stripe accounting must stay exact — every stripe
        # rebuilt exactly once, none lost, none double-counted.
        sim, system = _build()
        plan = (FaultPlan()
                .add(10.0, FaultKind.DISK_FAIL, "disk3")
                .add(11.0, FaultKind.BLADE_CRASH, "blade0", duration=50.0))
        inj = system.attach_faults(plan)
        _run_workload(sim, system, until=3600.0)

        job = system.cluster.rebuild_coordinator._job
        assert job is not None and job.done
        assert job.completed == job.total
        assert job.pending == []
        assert system.cluster.rebuild_coordinator.respawned >= 1
        assert inj.trackers["disk3"].state is HealthState.UP
        # Reads through the rebuilt range still complete.
        outcome = []

        def reader():
            got = yield system.read("/projects/results.h5", 0, mib(1))
            outcome.append(got)

        sim.process(reader())
        sim.run(until=sim.now + 60.0)
        assert outcome == [mib(1)]

    def test_second_fault_on_dead_disk_is_a_no_op(self):
        sim, system = _build()
        plan = (FaultPlan()
                .add(10.0, FaultKind.DISK_FAIL, "disk3")
                .add(12.0, FaultKind.DISK_FAIL, "disk3"))
        inj = system.attach_faults(plan)
        _run_workload(sim, system, until=3600.0)
        assert inj.trackers["disk3"].failures == 1
        assert system.pool.failed == {3}


class TestWanFaults:
    def test_link_flap_reroutes_and_recovers(self):
        from repro.geo import Site, WanNetwork
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0.0, 0.0)))
        b = net.add_site(Site(sim, "b", (0.0, 800.0)))
        c = net.add_site(Site(sim, "c", (600.0, 400.0)))
        direct = net.connect(a, b, bandwidth=gbps(2.5))
        net.connect(a, c, bandwidth=gbps(1.0))
        net.connect(c, b, bandwidth=gbps(1.0))

        inj = FaultInjector(sim)
        inj.bind_link(direct)
        inj.arm(FaultPlan().add(1.0, FaultKind.LINK_FLAP, direct.name,
                                duration=5.0))

        sim.run(until=2.0)
        assert direct.failed
        assert len(net.route(a, b)) == 2  # detours a -> c -> b
        sim.run(until=10.0)
        assert not direct.failed
        assert net.route(a, b) == [direct]
        assert inj.trackers[direct.name].repair_times == [pytest.approx(5.0)]


class TestArming:
    def test_strict_arm_rejects_unbound_targets(self):
        sim, system = _build()
        inj = system.attach_faults()
        with pytest.raises(KeyError):
            inj.arm(FaultPlan().add(1.0, FaultKind.BLADE_CRASH, "nonesuch"))

    def test_lenient_arm_skips_and_counts(self):
        sim, system = _build()
        inj = system.attach_faults()
        inj.arm(FaultPlan().add(1.0, FaultKind.BLADE_CRASH, "nonesuch"),
                strict=False)
        assert inj.skipped == 1
        sim.run(until=5.0)  # nothing explodes at t=1
        assert inj.applied == 0

    def test_summary_counts_campaign(self):
        sim, system = _build()
        inj = system.attach_faults(_crash_plan())
        _run_workload(sim, system)
        s = inj.summary()
        assert s["faults_armed"] == 3.0
        assert s["faults_applied"] == 3.0
        assert s["faults_cleared"] == 2.0  # transient burst has no clear
        assert s["failures"] == 1.0  # only the blade crash was an outage
        assert 0.0 < s["worst_availability"] < 1.0

    def test_trackers_join_the_management_plane(self):
        sim, system = _build()
        system.attach_faults(FaultPlan().add(15.0, FaultKind.BLADE_CRASH,
                                             "blade1", duration=30.0))
        _run_workload(sim, system, until=100.0)
        report = system.obs.mgmt.status_report()
        assert "faults.injector" in report
        assert "blade1.recovery" in report
