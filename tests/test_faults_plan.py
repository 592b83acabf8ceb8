"""FaultPlan / FaultSpec: ordering, validation, serialization, determinism."""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.sim.units import hours


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(-1.0, FaultKind.BLADE_CRASH, "blade0")
        with pytest.raises(ValueError):
            FaultSpec(1.0, FaultKind.BLADE_CRASH, "blade0", duration=-5.0)

    def test_round_trip_dict(self):
        spec = FaultSpec(3.5, FaultKind.SLOW_NODE, "blade2",
                         duration=10.0, severity=4.0)
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_specs_order_by_time_then_kind(self):
        early = FaultSpec(1.0, FaultKind.SITE_LOSS, "west")
        late = FaultSpec(2.0, FaultKind.BLADE_CRASH, "blade0")
        tied = FaultSpec(1.0, FaultKind.BLADE_CRASH, "blade0")
        assert sorted([late, early, tied]) == [tied, early, late]


class TestPlan:
    def test_add_keeps_schedule_sorted(self):
        plan = (FaultPlan()
                .add(5.0, FaultKind.DISK_FAIL, "disk3")
                .add(1.0, "blade_crash", "blade0", duration=2.0))
        assert [s.at for s in plan] == [1.0, 5.0]
        assert plan.faults[0].kind is FaultKind.BLADE_CRASH  # str coerced

    def test_by_kind(self):
        plan = (FaultPlan()
                .add(1.0, FaultKind.LINK_FLAP, "wan.ab")
                .add(2.0, FaultKind.LINK_FLAP, "wan.bc")
                .add(3.0, FaultKind.SITE_LOSS, "west"))
        assert len(plan.by_kind("link_flap")) == 2
        assert len(plan.by_kind(FaultKind.SITE_LOSS)) == 1

    def test_json_round_trip(self):
        plan = (FaultPlan(seed=None)
                .add(1.0, FaultKind.BLADE_CRASH, "blade0", duration=30.0)
                .add(2.5, FaultKind.TRANSIENT_IO, "cache", severity=3.0))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.faults == plan.faults
        assert clone.to_json() == plan.to_json()

    def test_random_is_deterministic(self):
        kw = dict(horizon=hours(500),
                  targets={FaultKind.BLADE_CRASH: ["blade0", "blade1"],
                           FaultKind.LINK_FLAP: ["wan.ab"]},
                  mtbf=hours(40), mttr=hours(2))
        a = FaultPlan.random(seed=7, **kw)
        b = FaultPlan.random(seed=7, **kw)
        c = FaultPlan.random(seed=8, **kw)
        assert len(a) > 0
        assert a.faults == b.faults
        assert a.faults != c.faults
        assert a.to_json() == b.to_json()

    def test_random_substreams_are_independent(self):
        # Adding a new target must not perturb an existing target's
        # timeline — each (kind, target) pair draws from its own named
        # substream.
        kw = dict(horizon=hours(500), mtbf=hours(40), mttr=hours(2))
        small = FaultPlan.random(
            seed=7, targets={FaultKind.BLADE_CRASH: ["blade0"]}, **kw)
        big = FaultPlan.random(
            seed=7, targets={FaultKind.BLADE_CRASH: ["blade0", "blade1"],
                             FaultKind.DISK_FAIL: ["disk0"]}, **kw)
        blade0 = [s for s in big if s.target == "blade0"]
        assert blade0 == small.faults

    def test_random_outages_do_not_overlap_per_target(self):
        plan = FaultPlan.random(
            seed=11, horizon=hours(2000),
            targets={FaultKind.BLADE_CRASH: ["blade0"]},
            mtbf=hours(20), mttr=hours(5))
        specs = plan.faults
        assert len(specs) >= 2
        for prev, cur in zip(specs, specs[1:]):
            assert cur.at >= prev.at + prev.duration

    def test_random_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.random(seed=1, horizon=0.0, targets={}, mtbf=1, mttr=1)
        with pytest.raises(ValueError):
            FaultPlan.random(seed=1, horizon=10.0, targets={}, mtbf=0, mttr=1)

    def test_random_severity_conventions(self):
        plan = FaultPlan.random(
            seed=3, horizon=hours(1000),
            targets={FaultKind.SLOW_NODE: ["blade0"],
                     FaultKind.TRANSIENT_IO: ["cache"]},
            mtbf=hours(30), mttr=hours(1),
            slow_factor=6.0, transient_burst=4)
        slow = plan.by_kind(FaultKind.SLOW_NODE)
        trans = plan.by_kind(FaultKind.TRANSIENT_IO)
        assert slow and all(s.severity == 6.0 for s in slow)
        assert trans and all(s.severity == 4.0 for s in trans)
        # Transient bursts are instantaneous: nothing to repair.
        assert all(s.duration == 0.0 for s in trans)
