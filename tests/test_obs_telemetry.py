"""Management plane: probes, aggregation, and export formats."""

import json

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.geo.metacenter import MetadataCenter
from repro.obs import ComponentHealth, HealthState, ManagementPlane
from repro.plan.spec import SiteSpec
from repro.sim.units import mib


def up(component, **metrics):
    return lambda: ComponentHealth(component, HealthState.UP, dict(metrics))


def test_register_poll_and_components():
    mgmt = ManagementPlane(Simulator())
    mgmt.register("blade0", up("blade0", cpu=0.2))
    mgmt.register("blade1", up("blade1", cpu=0.4))
    assert mgmt.components() == ["blade0", "blade1"]
    snap = mgmt.poll()
    assert snap["blade0"].metrics["cpu"] == 0.2
    assert mgmt.polls == 1
    mgmt.unregister("blade0")
    assert mgmt.components() == ["blade1"]


def test_raising_probe_reports_unknown_not_poll_failure():
    mgmt = ManagementPlane(Simulator())
    mgmt.register("good", up("good"))

    def bad():
        raise RuntimeError("component is on fire")

    mgmt.register("bad", bad)
    snap = mgmt.poll()  # must not raise
    assert snap["good"].state is HealthState.UP
    assert snap["bad"].state is HealthState.UNKNOWN
    assert "on fire" in snap["bad"].detail


def test_overall_is_worst_of():
    mgmt = ManagementPlane(Simulator())
    assert mgmt.overall() is HealthState.UP  # empty plane
    mgmt.register("a", up("a"))
    assert mgmt.overall() is HealthState.UP
    mgmt.register("b", lambda: ComponentHealth("b", HealthState.DEGRADED))
    assert mgmt.overall() is HealthState.DEGRADED
    mgmt.register("c", lambda: ComponentHealth("c", HealthState.FAILED))
    assert mgmt.overall() is HealthState.FAILED
    # FAILED outranks UNKNOWN in the aggregate.
    mgmt.register("d", lambda: (_ for _ in ()).throw(RuntimeError("x")))
    assert mgmt.overall() is HealthState.FAILED


def test_prometheus_text_exposition():
    mgmt = ManagementPlane(Simulator())
    mgmt.register("blade0", up("blade0", cpu_utilization=0.25, ios=12))
    mgmt.register("blade1",
                  lambda: ComponentHealth("blade1", HealthState.FAILED))
    text = mgmt.to_prometheus()
    assert "# TYPE netstorage_health gauge" in text
    assert 'netstorage_health{component="blade0"} 1' in text
    assert 'netstorage_health{component="blade1"} 0' in text
    assert 'netstorage_cpu_utilization{component="blade0"} 0.25' in text
    assert 'netstorage_ios{component="blade0"} 12' in text
    assert text.endswith("\n")


def test_json_export_is_deterministic_and_parses():
    sim = Simulator()
    mgmt = ManagementPlane(sim, name="oob")
    mgmt.register("cache.pool", up("cache.pool", hit_ratio=0.75))
    assert mgmt.to_json() == mgmt.to_json()
    doc = json.loads(mgmt.to_json())
    assert doc["plane"] == "oob"
    assert doc["overall"] == "up"
    assert doc["components"][0] == {
        "component": "cache.pool", "state": "up",
        "metrics": {"hit_ratio": 0.75}, "detail": ""}


def test_status_report_is_single_system_image():
    mgmt = ManagementPlane(Simulator())
    mgmt.register("blade0", up("blade0", cpu_utilization=0.5))
    mgmt.register("geo.replicator",
                  lambda: ComponentHealth("geo.replicator",
                                          HealthState.DEGRADED,
                                          detail="lagging"))
    report = mgmt.status_report()
    assert "system degraded" in report
    assert "blade0" in report and "geo.replicator" in report
    assert "lagging" in report
    assert "cpu_utilization=0.5" in report


def _booted_system(**cfg):
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        observability=True, **cfg))
    system.start()
    return sim, system


class TestSystemTelemetry:
    def test_per_blade_health_in_system_snapshot(self):
        sim, system = _booted_system()
        snap = system.obs.mgmt.poll()
        blades = [c for c in snap if c.startswith("netstorage.blade")]
        assert len(blades) == 4
        assert all(snap[b].state is HealthState.UP for b in blades)
        assert {"netstorage.cluster", "netstorage.cache.pool",
                "netstorage.raid.pool", "sim.kernel"} <= set(snap)
        assert system.obs.mgmt.overall(snap) is HealthState.UP

    def test_blade_failure_degrades_the_image(self):
        sim, system = _booted_system()
        blade = next(iter(system.cluster.blades.values()))
        blade.fail()
        snap = system.obs.mgmt.poll()
        assert snap[f"netstorage.{blade.name}"].state is HealthState.FAILED
        assert snap["netstorage.cluster"].state is not HealthState.UP
        assert system.obs.mgmt.overall(snap) is HealthState.FAILED
        # The failure also landed in the event log.
        assert system.obs.log.records(component=blade.name,
                                      kind="blade_failed")

    def test_rebuild_probe_reports_progress_then_eta_zero(self):
        sim, system = _booted_system()
        job = system.fail_disk_and_rebuild(0)
        probe_name = "rebuild.disk0"
        assert probe_name in system.obs.mgmt.components()
        mid = system.obs.mgmt.poll()[probe_name]
        assert mid.state is HealthState.DEGRADED
        sim.run(until=600.0)
        assert job.done
        after = system.obs.mgmt.poll()[probe_name]
        assert after.state is HealthState.UP
        assert after.metrics["eta_s"] == 0.0
        assert after.metrics["progress"] == 1.0

    def test_telemetry_report_text(self):
        sim, system = _booted_system()
        report = system.obs.mgmt.status_report()
        assert "system up" in report
        assert "blade0" in report


def test_three_site_plane_names_every_site_component_once():
    sim = Simulator()
    sites = [SiteSpec("a"), SiteSpec("b", (0.0, 400.0)),
             SiteSpec("c", (3000.0, 1500.0))]
    MetadataCenter(sim, sites, config=SystemConfig(
        blade_count=2, disk_count=8, disk_capacity=mib(64),
        observability=True, integrity=True))
    snap = sim.obs.mgmt.poll()
    assert all(health.component == key for key, health in snap.items())
    components = [health.component for health in snap.values()]
    assert len(components) == len(set(components))
    parts = ("cluster", "raid.pool", "cache.pool", "blade0", "blade1",
             "integrity", "integrity.repair")
    assert {f"{site}.{part}" for site in "abc" for part in parts} \
        <= set(snap)
