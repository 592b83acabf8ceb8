"""Cost-model replica selection, plus the migration read-path bug fixes.

Three regression tests here pin the bugs this change fixed (each failed
before it):

* stale residency snapshot — a replica that completes *after* a file's
  first access now serves the very next read;
* size over-registration — an overshooting first read no longer inflates
  the registered block count;
* unreachable holder — a partitioned-but-alive holder falls through to
  the next candidate instead of failing the read.

The determinism suite holds the bar the kernel promises: same spec +
seed is byte-identical across scheduler backends, with ``selection``
defaulting to ``static`` so pre-existing scenarios don't shift.
"""

import pytest

from repro.core import SystemConfig
from repro.fs import FilePolicy, ReplicationMode
from repro.geo import (
    CostModelSelector,
    DistributedAccessManager,
    GeoReplicator,
    MetadataCenter,
    RandomSelector,
    ReplicaCatalog,
    RouteHistory,
    Site,
    StaticSelector,
    WanNetwork,
    make_selector,
)
from repro.geo.selection import UNREACHABLE
from repro.plan import (ClusterSpec, LinkSpec, ScenarioSpec, SiteSpec,
                        SpecError, WorkloadSpec, plan_storage, run_scenario)
from repro.plan.matrix import MatrixSpec
from repro.sim import FAULT_EXCEPTIONS, SimulatedFault, Simulator
from repro.sim.units import gbps, mib

SYNC1 = FilePolicy(replication_mode=ReplicationMode.SYNC, replication_sites=1)
ASYNC1 = FilePolicy(replication_mode=ReplicationMode.ASYNC,
                    replication_sites=1)

SMALL = ClusterSpec(blade_count=2, disk_count=8, disk_capacity=mib(64),
                    cache_bytes_per_blade=mib(8))


def ring(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 400.0)))
    c = net.add_site(Site(sim, "c", (0.0, 4000.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    net.connect(b, c, bandwidth=gbps(1.0))
    net.connect(a, c, bandwidth=gbps(1.0))
    return net, a, b, c


def make_center(sim, **kw):
    center = MetadataCenter(sim, [
        SiteSpec("edmonton", (0.0, 0.0)),
        SiteSpec("seattle", (150.0, -1100.0)),
        SiteSpec("boulder", (1400.0, -1500.0)),
    ], config=SystemConfig(blade_count=2, disk_count=8,
                           disk_capacity=mib(64),
                           cache_bytes_per_blade=mib(8), replication=2), **kw)
    center.connect("edmonton", "seattle", bandwidth=gbps(2.5))
    center.connect("seattle", "boulder", bandwidth=gbps(1.0))
    center.connect("edmonton", "boulder", bandwidth=gbps(0.622))
    return center


# -- regression: the three fixed bugs ------------------------------------------------


class TestFixedBugs:
    def test_replica_completed_after_first_read_serves_next_read(self):
        """Stale-residency fix: the access layer's residency map tracks
        replica completions that happen *after* first-access registration,
        so the new copy serves the very next read at that site."""
        sim = Simulator()
        center = make_center(sim)
        center.create("/f", home="edmonton", policy=ASYNC1)
        sources = []

        def client():
            # First access registers residency while copies == {edmonton}.
            yield center.read("/f", 0, 1, at="boulder")
            # The write then replicates asynchronously to seattle...
            yield center.write("/f", 0, mib(1))
            yield sim.timeout(30.0)  # let the async backlog drain
            # ...and seattle's fresh copy must serve seattle locally.
            src = yield center.access.read(
                "/f", 0, center.network.sites["seattle"])
            sources.append(src)

        sim.process(client())
        sim.run(until=120.0)
        assert "seattle" in center.replicator.files["/f"].copies
        fr = center.access.files["/f"]
        assert fr.fully_resident_at("seattle")
        assert sources == ["local"]

    def test_overshooting_first_read_does_not_inflate_size(self):
        """Over-registration fix: the file registers at its *true* size,
        so a too-large first read can't pin an inflated block count that
        defeats fully_resident_at forever."""
        sim = Simulator()
        center = make_center(sim)
        center.create("/f", home="edmonton")

        def client():
            yield center.write("/f", 0, mib(1))
            # Ask for 4 MiB of a 1 MiB file on the very first access.
            yield center.read("/f", 0, 4 * mib(1), at="boulder")

        sim.process(client())
        sim.run(until=120.0)
        fr = center.access.files["/f"]
        assert fr.block_count == 1  # not 4
        assert fr.fully_resident_at("boulder")

    def test_partitioned_holder_falls_back_to_next_candidate(self):
        """Unreachable-holder fix: a holder that is alive but WAN-cut is
        skipped (per-candidate fallback), not allowed to fail the read."""
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0.0, 0.0)))
        b = net.add_site(Site(sim, "b", (0.0, 5000.0)))
        r = net.add_site(Site(sim, "r", (0.0, 100.0)))
        net.connect(a, r, bandwidth=gbps(1.0))
        net.connect(a, b, bandwidth=gbps(1.0))
        net.connect(b, r, bandwidth=gbps(1.0))
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection="static")
        dam.register("/f", 2 * mib(1), home=a)
        outcome = []

        def client():
            dam.catalog.note_copy_complete("/f", "b")
            # Cut every fibre touching a: alive, holds the file, no route.
            net.link("a", "r").fail()
            net.link("a", "b").fail()
            # Static ranks a first (100 km vs 4900 km) — pre-fix this
            # read died with NoRouteError instead of using b's copy.
            src = yield dam.read("/f", 0, r)
            outcome.append(src)

        sim.process(client())
        sim.run(until=120.0)
        assert outcome == ["remote"]
        assert dam.rerouted >= 1

    def test_read_with_no_live_holder_fails_its_completion_event(self):
        """No surviving copy is a simulated fault: the read's completion
        event fails with it, and a client handles it like any outage."""
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection="static")
        dam.register("/f", mib(1), home=a)
        a.fail()
        errors = []

        def client():
            try:
                yield dam.read("/f", 0, b)
            except FAULT_EXCEPTIONS as exc:
                errors.append(exc)

        sim.process(client())
        sim.run(until=60.0)
        assert len(errors) == 1
        assert isinstance(errors[0], SimulatedFault)
        assert "no surviving copy" in str(errors[0])

    def test_cost_selector_ranks_partitioned_holder_last(self):
        sim = Simulator()
        net = WanNetwork(sim)
        a = net.add_site(Site(sim, "a", (0.0, 0.0)))
        b = net.add_site(Site(sim, "b", (0.0, 5000.0)))
        r = net.add_site(Site(sim, "r", (0.0, 100.0)))
        net.connect(a, r, bandwidth=gbps(1.0))
        net.connect(b, r, bandwidth=gbps(1.0))
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection="cost")
        fr = dam.register("/f", mib(1), home=a)
        fr.resident["b"] = set(range(fr.block_count))
        net.link("a", "r").fail()
        sel = dam.selector
        assert sel.cost(fr, a, r, mib(1)) == UNREACHABLE
        assert [s.name for s in sel.rank(fr, 0, r, mib(1))] == ["b", "a"]


# -- the selectors -------------------------------------------------------------------


class TestRouteHistory:
    def test_ewma_tracks_observed_throughput(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        hist = RouteHistory(net, alpha=0.5).attach()

        def proc():
            yield net.transfer(a, b, mib(4))
            yield net.transfer(a, b, mib(4))

        sim.process(proc())
        sim.run()
        bw = hist.observed_bandwidth(a, b)
        assert bw is not None
        # Effective rate is below wire speed (propagation included) but
        # the right order of magnitude.
        assert 0.1 * gbps(2.5) < bw <= gbps(2.5)
        assert hist.samples == 2
        assert hist.outstanding["a"] == 0 and hist.outstanding["b"] == 0

    def test_cold_prediction_uses_route_shape(self):
        sim = Simulator()
        net, a, _b, c = ring(sim)
        hist = RouteHistory(net)
        links = net.route(a, c)
        expected = sum(l.latency for l in links) \
            + mib(1) / min(l.bandwidth for l in links)
        assert hist.predicted_seconds(a, c, mib(1)) == pytest.approx(expected)

    def test_partitioned_route_is_unreachable(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        for u, v, link in net.links():
            link.fail()
        hist = RouteHistory(net)
        assert hist.predicted_seconds(a, b, mib(1)) == UNREACHABLE
        assert hist.hops(a, b) == 0

    def test_attach_is_idempotent(self):
        sim = Simulator()
        net, _a, _b, _c = ring(sim)
        hist = RouteHistory(net).attach().attach()
        assert net.observers.count(hist) == 1

    def test_alpha_validated(self):
        sim = Simulator()
        net, _a, _b, _c = ring(sim)
        with pytest.raises(ValueError):
            RouteHistory(net, alpha=0.0)


class TestCostModel:
    def _dam(self, sim, net, **kw):
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection=CostModelSelector(
                                           net, **kw))
        return dam

    def test_tie_breaks_on_name(self):
        sim = Simulator()
        net = WanNetwork(sim)
        r = net.add_site(Site(sim, "r", (0.0, 0.0)))
        east = net.add_site(Site(sim, "east", (0.0, 1000.0)))
        west = net.add_site(Site(sim, "west", (0.0, -1000.0)))
        net.connect(r, east, bandwidth=gbps(1.0))
        net.connect(r, west, bandwidth=gbps(1.0))
        dam = self._dam(sim, net)
        fr = dam.register("/f", mib(1), home=east)
        fr.resident["west"] = set(range(fr.block_count))
        ranked = dam.selector.rank(fr, 0, r, mib(1))
        assert [s.name for s in ranked] == ["east", "west"]

    def test_site_load_penalty_reorders(self):
        sim = Simulator()
        net = WanNetwork(sim)
        r = net.add_site(Site(sim, "r", (0.0, 0.0)))
        east = net.add_site(Site(sim, "east", (0.0, 1000.0)))
        west = net.add_site(Site(sim, "west", (0.0, -1000.0)))
        net.connect(r, east, bandwidth=gbps(1.0))
        net.connect(r, west, bandwidth=gbps(1.0))
        # east reports degraded capacity (blades down) via the load hook.
        dam = self._dam(sim, net,
                        site_load_fn=lambda name: 4.0 if name == "east"
                        else 0.0)
        fr = dam.register("/f", mib(1), home=east)
        fr.resident["west"] = set(range(fr.block_count))
        ranked = dam.selector.rank(fr, 0, r, mib(1))
        assert [s.name for s in ranked] == ["west", "east"]

    def test_staleness_penalizes_async_and_disqualifies_sync(self):
        sim = Simulator()
        net, a, b, r = ring(sim)
        rep = GeoReplicator(sim, net)
        rep.register("/async", ASYNC1, a)
        rep.register("/sync", SYNC1, a)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection="cost")
        dam.catalog.bind_replicator(rep)
        fr_async = dam.register("/async", mib(1), home=a)
        fr_sync = dam.register("/sync", mib(1), home=a)
        for fr in (fr_async, fr_sync):
            fr.resident["b"] = set(range(fr.block_count))
        sel = dam.selector
        fresh = sel.cost(fr_async, b, r, mib(1))
        rep.async_backlog[("/async", "b")] = mib(64)
        rep.async_backlog[("/sync", "b")] = mib(64)
        assert sel.cost(fr_async, b, r, mib(1)) > fresh
        # RPO 0: a stale copy of a sync-replicated file is not the file.
        assert sel.cost(fr_sync, b, r, mib(1)) == UNREACHABLE

    def test_wan_pain_triggers_migration_below_access_threshold(self):
        sim = Simulator()
        net, a, b, _c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       auto_replicate_threshold=100,
                                       selection="cost")
        fr = dam.register("/f", mib(2), home=a)
        fr.access_counts["b"] = 1
        assert not dam.selector.should_replicate(fr, "b", 100)
        dam.catalog.record_read("/f", "b", wan_seconds=1.0)
        assert dam.selector.should_replicate(fr, "b", 100)


class TestSelectorFactory:
    def test_policies(self):
        sim = Simulator()
        net, _a, _b, _c = ring(sim)
        assert isinstance(make_selector("static", net), StaticSelector)
        assert isinstance(make_selector("random", net), RandomSelector)
        assert isinstance(make_selector("cost", net), CostModelSelector)
        with pytest.raises(ValueError):
            make_selector("greedy", net)

    def test_random_is_seed_deterministic(self):
        def picks(seed):
            sim = Simulator()
            net, a, b, c = ring(sim)
            sel = RandomSelector(net, ReplicaCatalog(), seed=seed)
            dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                           selection=sel)
            fr = dam.register("/f", mib(1), home=a)
            fr.resident["b"] = set(range(fr.block_count))
            return [tuple(s.name for s in sel.rank(fr, 0, c, mib(1)))
                    for _ in range(8)]

        assert picks(7) == picks(7)
        assert picks(7) != picks(8)  # astronomically unlikely to collide

    def test_static_matches_historical_order(self):
        sim = Simulator()
        net, a, b, c = ring(sim)
        dam = DistributedAccessManager(sim, net, block_size=mib(1),
                                       selection="static")
        fr = dam.register("/f", mib(1), home=a)
        fr.resident["b"] = set(range(fr.block_count))
        # The pre-selection rule: nearest surviving holder by fibre
        # distance, name-tied — from c that is b (3600 km) then a.
        assert [s.name for s in dam.selector.rank(fr, 0, c, mib(1))] \
            == ["b", "a"]
        b.fail()
        assert [s.name for s in dam.selector.rank(fr, 0, c, mib(1))] \
            == ["a"]


# -- the planner surface -------------------------------------------------------------


def geo_spec(**kw):
    kw.setdefault("cluster", SMALL)
    kw.setdefault("horizon_s", 240.0)
    kw.setdefault("sites", (SiteSpec("east"),
                            SiteSpec("west", (0.0, 900.0))))
    kw.setdefault("links", (LinkSpec("east", "west"),))
    kw.setdefault("workload", WorkloadSpec(clients=2, period_s=30.0,
                                           geo_mode="async", geo_sites=1))
    return ScenarioSpec(**kw)


class TestPlannerWiring:
    def test_spec_round_trips_selection(self):
        spec = geo_spec(selection="cost")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # Documents predating the field still load, as static.
        doc = spec.as_dict()
        del doc["selection"]
        assert ScenarioSpec.from_dict(doc).selection == "static"

    def test_default_is_static(self):
        assert ScenarioSpec().selection == "static"

    def test_planner_rejects_unknown_policy(self):
        with pytest.raises(SpecError, match="selection"):
            plan_storage(geo_spec(selection="greedy"))

    def test_built_center_uses_spec_policy(self):
        for policy, cls in (("static", StaticSelector),
                            ("cost", CostModelSelector)):
            built = plan_storage(geo_spec(selection=policy)).build(
                Simulator())
            assert isinstance(built.center.access.selector, cls)
            assert built.center.selection == policy

    def test_matrix_sweeps_selection_axis(self):
        matrix = MatrixSpec(geo_spec(), {"selection": ["static", "cost"]})
        cells = matrix.expand()
        assert [c.selection for c in cells] == ["static", "cost"]
        assert all("selection=" in c.name for c in cells)


# -- determinism ---------------------------------------------------------------------


class TestDeterminism:
    def test_cost_rerun_is_byte_identical(self):
        spec = geo_spec(selection="cost", seed=3)
        assert run_scenario(spec).fingerprint \
            == run_scenario(spec).fingerprint

    def test_static_explicit_equals_default(self):
        """Scenarios that never mention selection keep their traces: the
        default is exactly the historical static policy."""
        implicit = run_scenario(geo_spec(seed=5))
        explicit = run_scenario(geo_spec(selection="static", seed=5))
        assert implicit.fingerprint == explicit.fingerprint

    def test_random_rerun_is_byte_identical(self):
        spec = geo_spec(selection="random", seed=2)
        assert run_scenario(spec).fingerprint \
            == run_scenario(spec).fingerprint
