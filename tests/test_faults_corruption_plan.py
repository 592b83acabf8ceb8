"""Corruption kinds in the fault-plan layer: typed plans round-trip the
new kinds, unknown kinds fail loudly with their path, and campaigns bind
to integrity-enabled systems."""

import pytest

from repro import FaultKind, FaultPlan, NetStorageSystem, Simulator, \
    SystemConfig
from repro.faults.plan import _CORRUPTION_KINDS, FaultSpec
from repro.sim.units import mib


# -- plan round-trip -------------------------------------------------------


def test_corruption_kinds_round_trip_json():
    plan = (FaultPlan()
            .add(10.0, FaultKind.BITROT, "disk3")
            .add(20.0, FaultKind.TORN_WRITE, "disk7", severity=2.0)
            .add(30.0, FaultKind.MISDIRECTED_WRITE, "disk0")
            .add(40.0, FaultKind.WIRE_CORRUPT, "cache", severity=3.0))
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.faults == plan.faults
    assert [s.kind for s in clone] == [
        FaultKind.BITROT, FaultKind.TORN_WRITE,
        FaultKind.MISDIRECTED_WRITE, FaultKind.WIRE_CORRUPT]


def test_unknown_kind_names_kind_and_context():
    doc = ('{"faults": [{"at": 1.0, "kind": "bitrot", "target": "d0"}, '
           '{"at": 2.0, "kind": "gamma_ray", "target": "d1"}]}')
    with pytest.raises(ValueError) as err:
        FaultPlan.from_json(doc, context="campaign.json")
    msg = str(err.value)
    assert "gamma_ray" in msg
    assert err.value.path == "campaign.json.faults[1].kind"
    assert "bitrot" in msg  # the known-kinds list helps fix the fixture


def test_unknown_kind_default_context():
    with pytest.raises(ValueError) as err:
        FaultSpec.from_dict({"at": 0.0, "kind": "nope", "target": "x"})
    assert "'nope'" in str(err.value)


def test_random_campaign_corruption_semantics():
    plan = FaultPlan.random(
        99, 3600.0 * 24 * 30,
        {FaultKind.BITROT: ["disk0", "disk1"],
         FaultKind.WIRE_CORRUPT: ["cache"]},
        mtbf=3600.0 * 48, mttr=3600.0, corruption_burst=4)
    assert len(plan) > 0
    for spec in plan:
        assert spec.kind in _CORRUPTION_KINDS
        assert spec.duration == 0.0   # silent: no timed repair window
        assert spec.severity == 4.0   # corruption_burst
    # Determinism: same seed, same campaign (through JSON, too).
    again = FaultPlan.random(
        99, 3600.0 * 24 * 30,
        {FaultKind.BITROT: ["disk0", "disk1"],
         FaultKind.WIRE_CORRUPT: ["cache"]},
        mtbf=3600.0 * 48, mttr=3600.0, corruption_burst=4)
    assert again.to_json() == plan.to_json()


# -- binding to a system ---------------------------------------------------


def _quiesced_system(sim, integrity):
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(64), seed=7,
        integrity=integrity))
    system.start()
    system.create("/d")
    sim.run(until=system.write("/d", 0, mib(1)))
    sim.run()
    return system


def test_campaign_applies_at_rest_corruption():
    sim = Simulator()
    system = _quiesced_system(sim, integrity=True)
    injector = system.attach_faults(
        FaultPlan().add(5.0, FaultKind.BITROT, "disk2", severity=2.0))
    sim.run(until=10.0)
    assert injector.applied == 1
    disk = system.pool.disks[2]
    assert len(system.integrity.corrupt_records(disk.name)) == 2
    assert system.integrity.injected_by_kind["bitrot"] == 2


def test_corruption_binding_requires_integrity():
    sim = Simulator()
    system = _quiesced_system(sim, integrity=False)
    injector = system.attach_faults()
    # Without an IntegrityManager there is nothing to account corruption
    # against, so the targets simply don't exist — strict arming says so.
    with pytest.raises(KeyError):
        injector.arm(FaultPlan().add(5.0, FaultKind.BITROT, "disk2"))
    # Non-strict arming skips them, as stochastic over-generation would.
    injector.arm(FaultPlan().add(5.0, FaultKind.BITROT, "disk2"),
                 strict=False)
    assert injector.skipped == 1
