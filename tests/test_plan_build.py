"""Plan.build + BuiltScenario: assertions, lifecycle, determinism."""

import dataclasses
import warnings

import pytest

from repro.core import NetStorageSystem, SystemConfig
from repro.plan import (ClusterSpec, LinkSpec, PlanDivergenceError,
                        ScenarioSpec, SiteSpec, WorkloadSpec, plan_storage,
                        run_scenario)
from repro.plan.scenario import _assert_site
from repro.sim import ConditionError, Event, Simulator
from repro.sim.units import mib

SMALL = ClusterSpec(blade_count=2, disk_count=8, disk_capacity=mib(64))


def small_spec(**kw):
    kw.setdefault("cluster", SMALL)
    kw.setdefault("horizon_s", 300.0)
    kw.setdefault("workload", WorkloadSpec(clients=2, period_s=30.0))
    return ScenarioSpec(**kw)


# -- build asserts the plan ----------------------------------------------------


def test_build_single_site_matches_plan():
    plan = plan_storage(small_spec())
    built = plan.build(Simulator())
    assert built.kind == "system"
    assert isinstance(built.system, NetStorageSystem)
    sp = plan.sites[0]
    assert built.system.pool.stripe_count == sp.stripe_count
    assert built.system.pool.capacity == sp.capacity_bytes
    assert len(built.system.cluster.blades) == len(sp.blades)


def test_plan_divergence_is_detected():
    plan = plan_storage(small_spec())
    built = plan.build(Simulator())
    drifted = dataclasses.replace(plan.sites[0],
                                  stripe_count=plan.sites[0].stripe_count + 1)
    with pytest.raises(PlanDivergenceError) as exc:
        _assert_site(drifted, built.system)
    assert "stripe_count" in str(exc.value)
    bad_config = dataclasses.replace(
        plan.sites[0], config=dataclasses.replace(sp_config(plan), seed=99))
    with pytest.raises(PlanDivergenceError) as exc:
        _assert_site(bad_config, built.system)
    assert "config" in str(exc.value)


def sp_config(plan):
    return plan.sites[0].config


def test_build_geo_kind_per_site_overrides():
    spec = small_spec(
        sites=(SiteSpec("east"),
               SiteSpec("west", (0.0, 1000.0), ClusterSpec(blade_count=3))),
        links=(LinkSpec("east", "west", encrypted=True),))
    built = plan_storage(spec).build(Simulator())
    assert built.kind == "geo"
    assert set(built.systems) == {"east", "west"}
    assert len(built.systems["east"].cluster.blades) == 2
    assert len(built.systems["west"].cluster.blades) == 3
    assert built.center is not None
    assert built.site("east").name == "east"


def test_build_wan_kind():
    spec = ScenarioSpec(
        site_backing="aggregate", horizon_s=300.0,
        sites=(SiteSpec("a"), SiteSpec("b", (0.0, 500.0))),
        workload=WorkloadSpec(clients=1, period_s=30.0))
    built = plan_storage(spec).build(Simulator())
    assert built.kind == "wan"
    assert built.system is None and built.center is None
    assert built.replicator is not None and built.dr is not None
    assert set(built.network.sites) == {"a", "b"}


# -- provisioning lifecycle ----------------------------------------------------


def test_provision_is_idempotent_and_ordered():
    spec = small_spec(
        observability=True, integrity=True, scrub_passes=1, profiler=True,
        faults={"seed": 3, "faults": [
            {"at": 60.0, "kind": "blade_crash", "target": "blade1",
             "duration": 30.0}]})
    sim = Simulator()
    built = plan_storage(spec).build(sim)
    assert built.obs is sim.obs          # obs is build-time
    assert built.injector is None        # faults are provision-time
    assert built.provision() is built
    assert built.profiler is not None
    assert built.injector is not None
    assert len(built.scrubbers) == 1
    # The profiler and the injector's trackers joined the mgmt plane.
    assert built.obs.mgmt._attachments["profiler"] is built.profiler
    assert {"blade1.recovery", "site0.blade1"} <= set(built.obs.mgmt.poll())
    # Idempotent: provisioning again arms nothing twice.
    injector = built.injector
    assert built.provision().injector is injector
    assert len(built.scrubbers) == 1


def test_context_manager_provisions():
    sim = Simulator()
    with plan_storage(small_spec()).build(sim) as built:
        assert built._provisioned
        result = built.run()
    assert result.ok > 0 and result.failed == 0


def test_geo_site_loss_fails_ops_not_the_kernel():
    """A mid-read site loss in the full geo composition must surface as
    failed client iterations through the migration manager's process
    boundary — never crash the kernel."""
    spec = small_spec(
        seed=3, horizon_s=240.0,
        sites=(SiteSpec("east"), SiteSpec("west", (0.0, 800.0))),
        workload=WorkloadSpec(clients=2, period_s=30.0),
        faults={"seed": 1, "faults": [
            {"at": 60.0, "kind": "site_loss", "target": "west",
             "duration": 60.0}]})
    result = run_scenario(spec)
    assert result.ok > 0
    assert result.failed > 0
    assert run_scenario(spec).fingerprint == result.fingerprint


def test_bug_under_a_barrier_crashes_the_run():
    """A model bug failing one cache read under the client's all_of
    barrier is not a fault: the run crashes instead of counting failed
    iterations."""
    spec = ScenarioSpec(name="mask", horizon_s=120,
                        workload=WorkloadSpec(clients=1, period_s=30))
    sim = Simulator()
    built = plan_storage(spec).build(sim)

    def buggy_read(*args, **kwargs):
        ev = Event(sim)
        ev.fail(TypeError("model bug"))
        return ev

    built.system.cache.read = buggy_read
    with pytest.raises(ConditionError) as exc:
        built.run()
    assert isinstance(exc.value.__cause__, TypeError)


def test_wan_faults_drive_dr_failover():
    spec = ScenarioSpec(
        site_backing="aggregate", horizon_s=600.0,
        sites=(SiteSpec("a"), SiteSpec("b", (0.0, 500.0))),
        workload=WorkloadSpec(clients=2, period_s=30.0, geo_mode="sync"),
        faults={"seed": 1, "faults": [
            {"at": 120.0, "kind": "site_loss", "target": "a",
             "duration": 300.0}]})
    result = run_scenario(spec)
    # The armed site loss surfaced through the injector-driven DR path:
    # clients kept iterating, and the outage shows up as failed ops.
    assert result.ok > 0
    assert result.failed > 0


# -- determinism ---------------------------------------------------------------


def test_same_spec_and_seed_byte_identical_traces():
    spec = small_spec(seed=21, observability=True,
                      faults={"seed": 4, "faults": [
                          {"at": 45.0, "kind": "disk_fail",
                           "target": "disk3", "duration": 20.0}]})

    def trace():
        sim = Simulator()
        with plan_storage(spec).build(sim) as built:
            built.run()
            return built.system.obs.tracer.to_json()

    assert trace() == trace()


def test_same_spec_and_seed_same_fingerprint():
    spec = small_spec(seed=9)
    r1, r2 = run_scenario(spec), run_scenario(spec)
    assert r1.fingerprint == r2.fingerprint
    assert r1.as_dict() == r2.as_dict()
    # A different seed perturbs the layout and hence the outcome digest.
    r3 = run_scenario(dataclasses.replace(spec, seed=10))
    assert r3.fingerprint != r1.fingerprint


def test_shared_obs_bundle_across_geo_sites():
    spec = small_spec(
        observability=True,
        sites=(SiteSpec("east"), SiteSpec("west", (0.0, 900.0))))
    sim = Simulator()
    built = plan_storage(spec).build(sim)
    # Both per-site systems joined the one bundle instead of overwriting.
    assert built.systems["east"].obs is sim.obs
    assert built.systems["west"].obs is sim.obs


# -- MetadataCenter takes SiteSpec objects only ---------------------------------


def test_metadata_center_rejects_tuple_dict():
    from repro.geo import MetadataCenter
    with pytest.raises(TypeError, match="SiteSpec"):
        MetadataCenter(Simulator(), {"a": (0.0, 0.0), "b": (0.0, 700.0)})


def test_metadata_center_site_spec_list_does_not_warn():
    from repro.geo import MetadataCenter
    sim = Simulator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center = MetadataCenter(
            sim, [SiteSpec("a"), SiteSpec("b", (0.0, 700.0))],
            config=SystemConfig(blade_count=2, disk_count=8,
                                disk_capacity=mib(64)))
    assert set(center.systems) == {"a", "b"}
