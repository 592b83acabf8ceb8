"""PARTITION faults: target grammar, injection, overlap composition."""

import pytest

from repro.faults import FaultKind, FaultPlan, parse_partition_target
from repro.faults.injector import FaultInjector
from repro.geo import GeoReplicator, Site, WanNetwork
from repro.plan import (MatrixSpec, ScenarioSpec, SiteSpec, SpecError,
                        plan_storage, run_scenario)
from repro.sim import Simulator
from repro.sim.units import gbps, mib


def triangle(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    c = net.add_site(Site(sim, "c", (3000.0, 1500.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(1.0))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


class TestParsePartitionTarget:
    def test_groups_sorted_and_deduped(self):
        assert parse_partition_target("b, a ,a|c") == (("a", "b"), ("c",))

    def test_exactly_two_groups(self):
        with pytest.raises(ValueError):
            parse_partition_target("a,b,c")
        with pytest.raises(ValueError):
            parse_partition_target("a|b|c")

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            parse_partition_target("a|")
        with pytest.raises(ValueError):
            parse_partition_target("| b")

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            parse_partition_target("a,b|b,c")


class TestPartitionInjection:
    def test_cut_is_bidirectional_and_sites_stay_up(self):
        sim = Simulator()
        net, a, b, c = triangle(sim)
        plan = FaultPlan().add(1.0, "partition", "a|b,c", duration=2.0)
        FaultInjector(sim).bind_partitions(net).arm(plan)
        seen = {}

        def probe(label):
            seen[label] = {
                "a_to_b": net.reachable(a, b),
                "b_to_a": net.reachable(b, a),
                "b_to_c": net.reachable(b, c),
                "a_failed": a.failed,
            }

        sim.call_at(1.5, lambda: probe("during"))
        sim.call_at(4.0, lambda: probe("after"))
        sim.run(until=5.0)
        assert seen["during"] == {"a_to_b": False, "b_to_a": False,
                                  "b_to_c": True, "a_failed": False}
        assert seen["after"] == {"a_to_b": True, "b_to_a": True,
                                 "b_to_c": True, "a_failed": False}

    def test_unknown_site_in_group_rejected_at_arm(self):
        sim = Simulator()
        net, *_ = triangle(sim)
        plan = FaultPlan().add(1.0, "partition", "a|zz", duration=1.0)
        with pytest.raises(ValueError, match="unknown site"):
            FaultInjector(sim).bind_partitions(net).arm(plan)

    def test_partition_without_network_binding_is_strict_error(self):
        sim = Simulator()
        plan = FaultPlan().add(1.0, "partition", "a|b", duration=1.0)
        with pytest.raises(KeyError):
            FaultInjector(sim).arm(plan)

    def test_plan_json_round_trip(self):
        plan = FaultPlan().add(3.0, "partition", "a,b|c", duration=4.0)
        again = FaultPlan.from_json(plan.to_json())
        spec = again.by_kind(FaultKind.PARTITION)[0]
        assert (spec.at, spec.target, spec.duration) == (3.0, "a,b|c", 4.0)

    def test_random_campaign_draws_partition_windows(self):
        plan = FaultPlan.random(7, 1000.0,
                                {"partition": ["a|b,c", "c|a,b"]},
                                mtbf=200.0, mttr=50.0)
        specs = plan.by_kind(FaultKind.PARTITION)
        assert specs and all(s.duration > 0 for s in specs)
        # Same seed, same campaign.
        replay = FaultPlan.random(7, 1000.0,
                                  {"partition": ["a|b,c", "c|a,b"]},
                                  mtbf=200.0, mttr=50.0)
        assert plan.to_json() == replay.to_json()


class TestOverlapComposition:
    def test_link_flap_overlapping_partition_no_early_repair(self):
        sim = Simulator()
        net, a, b, c = triangle(sim)
        ab = net.link("a", "b")
        ac = net.link("a", "c")
        injector = FaultInjector(sim).bind_partitions(net)
        injector.bind_link(ab)
        plan = (FaultPlan()
                .add(1.0, "link_flap", ab.name, duration=4.0)
                .add(2.0, "partition", "a|b,c", duration=1.0))
        injector.arm(plan)
        seen = {}

        def probe(label):
            seen[label] = (ab.failed, ac.failed)

        sim.call_at(2.5, lambda: probe("both_active"))
        # The partition heals at t=3: its release must NOT resurrect the
        # a-b fibre the flap still holds, but a-c (held only by the
        # partition) comes back.
        sim.call_at(3.5, lambda: probe("flap_only"))
        sim.call_at(5.5, lambda: probe("all_clear"))
        sim.run(until=6.0)
        assert seen["both_active"] == (True, True)
        assert seen["flap_only"] == (True, False)
        assert seen["all_clear"] == (False, False)

    def test_overlapping_site_loss_holds_until_last_release(self):
        sim = Simulator()
        net, a, _b, _c = triangle(sim)
        rep = GeoReplicator(sim, net)
        injector = FaultInjector(sim)
        injector.bind_site(a)
        plan = (FaultPlan()
                .add(1.0, "site_loss", "a", duration=4.0)
                .add(2.0, "site_loss", "a", duration=1.0))
        injector.arm(plan)
        seen = {}
        sim.call_at(3.5, lambda: seen.update(mid=a.failed))
        sim.call_at(5.5, lambda: seen.update(end=a.failed))
        sim.run(until=6.0)
        # The inner spec's clear at t=3 must not resurrect the site the
        # outer, longer outage still claims.
        assert seen == {"mid": True, "end": False}
        # One physical outage => one down transition and one tracked
        # failure, however many overlapping specs composed it.
        assert rep.down_transitions == 1
        assert injector.tracker("a").failures == 1

    def test_double_outage_counts_two_transitions(self):
        sim = Simulator()
        net, a, _b, _c = triangle(sim)
        rep = GeoReplicator(sim, net)
        injector = FaultInjector(sim)
        injector.bind_site(a)
        plan = (FaultPlan()
                .add(1.0, "site_loss", "a", duration=1.0)
                .add(4.0, "site_loss", "a", duration=1.0))
        injector.arm(plan)
        sim.run(until=10.0)
        assert rep.down_transitions == 2
        assert injector.tracker("a").failures == 2


class TestPlannerValidation:
    def _wan_spec(self, faults=None, **kw):
        kw.setdefault("sites", (SiteSpec("a"), SiteSpec("b", (0.0, 400.0)),
                                SiteSpec("c", (3000.0, 1500.0))))
        kw.setdefault("site_backing", "aggregate")
        return ScenarioSpec(faults=faults, **kw)

    def test_partition_rejected_on_single_site(self):
        spec = ScenarioSpec(faults={"faults": [
            {"at": 1.0, "kind": "partition", "target": "a|b",
             "duration": 1.0}]})
        with pytest.raises(SpecError) as exc:
            plan_storage(spec)
        assert exc.value.path == "faults[0].target"

    def test_partition_group_must_name_declared_sites(self):
        spec = self._wan_spec(faults={"faults": [
            {"at": 1.0, "kind": "partition", "target": "a|zz",
             "duration": 1.0}]})
        with pytest.raises(SpecError) as exc:
            plan_storage(spec)
        assert exc.value.path == "faults[0].target"
        assert "zz" in str(exc.value)

    def test_partition_grammar_errors_carry_spec_path(self):
        spec = self._wan_spec(faults={"faults": [
            {"at": 1.0, "kind": "partition", "target": "a,b|b",
             "duration": 1.0}]})
        with pytest.raises(SpecError) as exc:
            plan_storage(spec)
        assert exc.value.path == "faults[0].target"

    def test_valid_partition_campaign_compiles(self):
        spec = self._wan_spec(faults={"faults": [
            {"at": 1.0, "kind": "partition", "target": "a|b,c",
             "duration": 2.0}]})
        plan = plan_storage(spec)
        assert plan.faults.by_kind(FaultKind.PARTITION)[0].target == "a|b,c"

    def test_reconcile_axis_round_trips(self):
        spec = ScenarioSpec.from_dict({"reconcile": True})
        assert spec.reconcile is True
        assert spec.as_dict()["reconcile"] is True
        # Off stays out of the document (fixture byte-identity).
        assert "reconcile" not in ScenarioSpec().as_dict()

    def test_matrix_sweeps_reconcile(self):
        matrix = MatrixSpec(
            base=ScenarioSpec(sites=(SiteSpec("a"),
                                     SiteSpec("b", (0.0, 400.0))),
                              site_backing="aggregate", horizon_s=10.0),
            sweep={"reconcile": [False, True]})
        specs = matrix.expand()
        assert [s.reconcile for s in specs] == [False, True]
        assert specs[1].name.endswith("reconcile=on")


class TestScenarioPartition:
    def test_partitioned_scenario_reconciles(self):
        doc = {
            "name": "partition-smoke", "seed": 11, "horizon_s": 30.0,
            "site_backing": "aggregate",
            "sites": [{"name": "a", "position": [0.0, 0.0]},
                      {"name": "b", "position": [0.0, 400.0]},
                      {"name": "c", "position": [3000.0, 1500.0]}],
            "workload": {"clients": 3, "op_bytes": int(mib(1)),
                         "period_s": 0.5, "geo_mode": "sync",
                         "geo_sites": 2},
            "faults": {"faults": [
                {"at": 5.0, "kind": "partition", "target": "a|b,c",
                 "duration": 6.0}]},
            "reconcile": True,
        }
        result = run_scenario(ScenarioSpec.from_dict(doc))
        assert result.ok > 0
        assert result.failed > 0  # sync writes failed visibly during cut
        assert result.metrics.get("reconcile.sweeps", 0.0) >= 1
