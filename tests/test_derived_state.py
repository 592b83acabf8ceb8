"""Values derived once and dropped on the transition that changes them.

Live blade sets, WAN routes and batched arrival draws are each computed
once and kept until a state transition invalidates them.  Every test
here compares the kept value with a fresh recomputation after each kind
of transition, so a missing invalidation (or a cached list handed out
for callers to mutate) fails.
"""

import itertools
import random

import numpy as np
import pytest

from repro import NetStorageSystem, SystemConfig
from repro.cluster import ClusterMembership, LoadBalancer, RollingUpgrade
from repro.geo import NoRouteError, Site, WanNetwork
from repro.hardware import ControllerBlade
from repro.hardware.blade import BladeState
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import gbps
from repro.workloads.hotspot import HotspotWorkload, ZipfKeyGenerator

# -- WAN routes -------------------------------------------------------------


def mesh():
    """Five sites: a ring with one chord, so failures leave detours."""
    sim = Simulator()
    net = WanNetwork(sim)
    for i, name in enumerate("abcde"):
        net.add_site(Site(sim, name, (0.0, 700.0 * i)))
    for u, v in ("ab", "bc", "cd", "de", "ea", "ac"):
        net.connect(net.sites[u], net.sites[v], bandwidth=gbps(1.0))
    return net


def fresh_route(net, src, dst):
    """What route() returns with nothing cached: link ids or a refusal."""
    if src.failed or dst.failed:
        return "endpoint down"
    try:
        names = net._shortest_path(src.name, dst.name)
    except NoRouteError:
        return "no route"
    return [id(net.link(u, v)) for u, v in zip(names, names[1:])]


def cached_route(net, src, dst):
    try:
        return [id(link) for link in net.route(src, dst)]
    except NoRouteError as exc:
        return "endpoint down" if "endpoint" in str(exc) else "no route"


def warm(net):
    """Cache a route for every ordered pair."""
    for src, dst in itertools.product(net.sites.values(), repeat=2):
        cached_route(net, src, dst)


def assert_fresh(net):
    for src, dst in itertools.product(net.sites.values(), repeat=2):
        assert cached_route(net, src, dst) == fresh_route(net, src, dst), \
            (src.name, dst.name)


class TestRouteCache:
    def test_every_site_and_link_transition(self):
        net = mesh()
        parts = list(net.sites.values()) + [l for _u, _v, l in net.links()]
        for part in parts:
            warm(net)
            part.fail()
            assert_fresh(net)
            warm(net)
            part.repair()
            assert_fresh(net)

    def test_new_shortcut_and_new_site(self):
        net = mesh()
        warm(net)
        a, d = net.sites["a"], net.sites["d"]
        assert len(net.route(a, d)) == 2
        net.connect(a, d, bandwidth=gbps(1.0))
        assert_fresh(net)
        assert len(net.route(a, d)) == 1
        warm(net)
        f = Site(net.sim, "f", (0.0, 50.0))
        assert cached_route(net, a, f) == "no route"  # not added yet
        net.add_site(f)  # isolated until connected: no route changes
        assert_fresh(net)
        net.connect(a, f, bandwidth=gbps(1.0))
        assert_fresh(net)
        assert net.route(f, d) == [net.link("a", "f"), net.link("a", "d")]

    def test_listeners_route_on_the_new_state(self):
        net = mesh()
        a, c = net.sites["a"], net.sites["c"]
        seen = []
        net.state_listeners.append(
            lambda _obj, _failed: seen.append(
                (cached_route(net, a, c), fresh_route(net, a, c))))
        warm(net)
        net.link("a", "c").fail()
        net.link("a", "c").repair()
        assert len(seen) == 2
        assert all(got == want for got, want in seen)

    def test_callers_get_a_copy(self):
        net = mesh()
        a, c = net.sites["a"], net.sites["c"]
        net.route(a, c).clear()
        assert len(net.route(a, c)) == 1

    def test_endpoint_check_is_not_cached(self):
        net = mesh()
        a, b = net.sites["a"], net.sites["b"]
        net.route(a, b)
        b.failed = True  # a bare write, which reaches no hook
        with pytest.raises(NoRouteError, match="endpoint down: b"):
            net.route(a, b)


# -- live blade sets ------------------------------------------------------------------


def up_ids(blades):
    return sorted(bid for bid, b in blades.items()
                  if b.state is BladeState.UP)


def assert_live_fresh(system):
    want = up_ids(system.cluster.blades)
    assert system.cluster.membership.live_ids() == want
    assert system.cache.live_blades() == want
    if want:
        assert system.cluster.balancer.pick() in want


class TestLiveBlades:
    def test_fail_repair_drain_scale_out(self):
        sim = Simulator()
        system = NetStorageSystem(sim, SystemConfig(blade_count=4))
        blades = system.cluster.blades
        assert_live_fresh(system)
        blades[1].fail()
        assert_live_fresh(system)
        blades[2].drain()
        assert_live_fresh(system)
        blades[1].repair()
        assert_live_fresh(system)
        added = system.scale_out(2)
        assert_live_fresh(system)
        added[0].fail()
        assert_live_fresh(system)
        added[0].repair()
        blades[2].repair()
        assert_live_fresh(system)

    def test_observers_read_the_new_set(self):
        """The system's blade observer reads the new sets, on founding
        and scaled-out blades alike."""
        sim = Simulator()
        system = NetStorageSystem(sim, SystemConfig(blade_count=3))
        system.scale_out(1)
        seen = []
        on_fail = system.cache.on_blade_fail

        def checking(blade_id):
            seen.append((system.cache.live_blades(),
                         system.cluster.membership.live_ids(),
                         up_ids(system.cluster.blades)))
            return on_fail(blade_id)

        system.cache.on_blade_fail = checking
        for bid in (3, 0):
            system.cache.live_blades()
            system.cluster.membership.live_ids()
            system.cluster.blades[bid].fail()
        assert len(seen) == 2
        assert all(pool == ms == want for pool, ms, want in seen)

    def test_membership_handlers_read_the_new_set(self):
        """Membership subscribes to the founding blades before the cache
        pool does, and its joined/draining handlers run synchronously:
        they must still see the pool's set after the transition."""
        sim = Simulator()
        system = NetStorageSystem(sim, SystemConfig(blade_count=3))
        system.scale_out(1)
        seen = []
        system.cluster.on_blade_event(
            lambda blade, event: seen.append(
                (event, system.cache.live_blades(),
                 system.cluster.membership.live_ids(),
                 up_ids(system.cluster.blades))))
        for bid in (0, 3):
            system.cache.live_blades()
            system.cluster.blades[bid].drain()
            system.cache.live_blades()
            system.cluster.blades[bid].repair()
        assert [e for e, *_ in seen] == ["draining", "joined"] * 2
        assert all(pool == ms == want for _e, pool, ms, want in seen)

    def test_rolling_upgrade(self):
        sim = Simulator()
        system = NetStorageSystem(sim, SystemConfig(blade_count=4))
        cluster = system.cluster
        upgrade = RollingUpgrade(sim, cluster.membership, cluster.balancer,
                                 upgrade_duration=1.0, min_live=2)
        done = upgrade.start()
        checks = []

        def monitor():
            while not done.triggered:
                assert_live_fresh(system)
                checks.append(len(cluster.membership.live_ids()))
                yield sim.timeout(0.25)

        sim.process(monitor())
        sim.run()
        assert upgrade.upgraded == [0, 1, 2, 3]
        # One blade is always out: the next drains as the last rejoins.
        assert len(checks) > 10 and set(checks) == {3}
        assert_live_fresh(system)
        assert len(cluster.membership.live_ids()) == 4


    @pytest.mark.parametrize("busy", [True, False])
    def test_blade_repaired_during_its_drain_is_drained_again(self, busy):
        """The upgrade's bare FAILED write must only ever hit a blade no
        live set holds, even one that failed and rejoined mid-drain,
        whether its work was still in flight at the rejoin or not."""
        sim = Simulator()
        system = NetStorageSystem(sim, SystemConfig(blade_count=3))
        cluster = system.cluster
        RollingUpgrade(sim, cluster.membership, cluster.balancer,
                       upgrade_duration=5.0).start()
        cluster.balancer.start(0)  # an op in flight keeps the drain waiting
        blade = cluster.blades[0]

        def chaos():
            yield sim.timeout(0.105)  # between two drain polls
            blade.fail()
            if busy:
                yield sim.timeout(0.1)
            else:
                cluster.balancer.finish(0)
            blade.repair()
            assert_live_fresh(system)
            if busy:
                yield sim.timeout(0.05)
                cluster.balancer.finish(0)
            yield sim.timeout(0.1)
            assert blade.state is BladeState.FAILED  # down for the upgrade
            assert_live_fresh(system)
            assert 0 not in {cluster.balancer.pick() for _ in range(6)}

        sim.process(chaos())
        sim.run(until=1.0)
        events = [e for _t, bid, e in cluster.membership.transitions
                  if bid == 0]
        assert events[:3] == ["draining", "joined", "draining"]


class TestPick:
    def test_matches_the_min_key_rule(self):
        rnd = random.Random(26)
        sim = Simulator()
        ids = [0, 1, 2, 3, 5, 8, 9]  # gaps make (bid + rr) % n collide
        ms = ClusterMembership(
            sim, [ControllerBlade(sim, i) for i in ids])
        lb = LoadBalancer(ms)
        for _ in range(3000):
            blade = ms.blades[rnd.choice(ids)]
            if rnd.random() < 0.1 and blade.is_up:
                blade.fail()
            elif rnd.random() < 0.1:
                blade.repair()
            for bid in ids:
                lb.in_flight[bid] = rnd.randrange(3)
            live = up_ids(ms.blades)
            if not live:
                continue
            rr = lb._rr + 1
            want = min(live, key=lambda bid: (lb.in_flight.get(bid, 0),
                                              (bid + rr) % len(live)))
            assert lb.pick() == want


# -- batched arrivals ---------------------------------------------------------------


class ScalarHotspot(HotspotWorkload):
    """The per-request draw loop batching replaced, kept as reference."""

    def _run(self):
        end = self.sim.now + self.duration
        pending = []
        while self.sim.now < end:
            yield self.sim.timeout(
                float(self.rng.exponential(1.0 / self.arrival_rate)))
            if self.sim.now >= end:
                break
            key = self.generator.draw()
            pending.append(self.sim.process(self._one(key)))
            self.issued += 1
        if pending:
            yield self.sim.all_of(pending)


def issued_sequence(cls, runs=2):
    sim = Simulator()
    streams = RngStreams(26)
    gen = ZipfKeyGenerator(500, 1.1, streams.fresh("keys"))
    seen = []

    def issue(key):
        seen.append((sim.now, key))
        return sim.timeout(0.0005)

    wl = cls(sim, gen, issue, arrival_rate=4000.0, duration=0.4,
             rng=streams.fresh("arrivals"))
    for _ in range(runs):
        wl.run()
        sim.run()
    return seen


class TestBatchedArrivals:
    def test_same_requests_as_scalar_draws(self):
        got = issued_sequence(HotspotWorkload)
        want = issued_sequence(ScalarHotspot)
        # ~1600 a run: both batch boundaries and the second run's resume.
        assert len(want) > 3 * 1024
        assert got == want

    def test_shared_stream_is_refused(self):
        sim = Simulator()
        rng = RngStreams(1).fresh("x")
        gen = ZipfKeyGenerator(10, 1.0, rng)
        with pytest.raises(ValueError, match="distinct"):
            HotspotWorkload(sim, gen, lambda k: sim.timeout(0),
                            arrival_rate=10.0, duration=1.0, rng=rng)

    def test_draw_many_is_successive_draws(self):
        gen = ZipfKeyGenerator(300, 1.3, RngStreams(4).fresh("k"))
        ref = ZipfKeyGenerator(300, 1.3, RngStreams(4).fresh("k"))
        assert gen.draw_many(2500) == [ref.draw() for _ in range(2500)]
        # Draws past the last cdf step clamp to the last key, as in draw().
        gen._cdf = ref._cdf = ref._cdf * 0.5
        assert gen.draw_many(500) == [ref.draw() for _ in range(500)]
        assert ("block", 299) in gen.draw_many(50)

    @pytest.mark.parametrize("seed", [0, 1, 2002])
    def test_numpy_vector_draws_equal_scalar_draws(self, seed):
        """Batching rests on this numpy property; an upgrade that breaks
        it must fail here, not shift every hotspot result silently."""
        vec = np.random.default_rng(seed)
        one = np.random.default_rng(seed)
        for size in (1, 7, 1024):
            assert vec.exponential(1 / 12000.0, size).tolist() \
                == [float(one.exponential(1 / 12000.0)) for _ in range(size)]
            assert vec.random(size).tolist() \
                == [one.random() for _ in range(size)]
