"""Unit tests for snapshot-delta shipping replication."""

import pytest

from repro.geo import (
    NoRouteError,
    Site,
    SnapshotShippingReplicator,
    WanNetwork,
    snapshot_delta_pages,
)
from repro.sim import Simulator
from repro.sim.units import gbps, mib
from repro.virt import Allocator, DemandMappedDevice, StoragePool, take_snapshot

PAGE = mib(1)


def make_env(sim):
    net = WanNetwork(sim)
    a = net.add_site(Site(sim, "a", (0.0, 0.0)))
    b = net.add_site(Site(sim, "b", (0.0, 800.0)))
    net.connect(a, b, bandwidth=gbps(2.5))
    alloc = Allocator([StoragePool("p", 4096 * PAGE, PAGE)])
    dmsd = DemandMappedDevice("vol", 2048 * PAGE, alloc)
    ship = SnapshotShippingReplicator(sim, dmsd, net, a, b)
    return net, dmsd, ship


class TestDeltaComputation:
    def test_first_delta_is_full_mapped_set(self):
        sim = Simulator()
        _net, dmsd, _ship = make_env(sim)
        dmsd.write(0, 5 * PAGE)
        snap = take_snapshot(dmsd, "s")
        assert snapshot_delta_pages(None, snap) == 5

    def test_unchanged_pages_excluded(self):
        sim = Simulator()
        _net, dmsd, _ship = make_env(sim)
        dmsd.write(0, 5 * PAGE)
        old = take_snapshot(dmsd, "old")
        dmsd.write(0, PAGE)          # COW: one page changes
        dmsd.write(10 * PAGE, PAGE)  # one new page
        new = take_snapshot(dmsd, "new")
        assert snapshot_delta_pages(old, new) == 2


class TestShipping:
    def test_ships_only_deltas(self):
        sim = Simulator()
        _net, dmsd, ship = make_env(sim)

        def scenario():
            dmsd.write(0, 8 * PAGE)
            yield from ship.ship_now()
            first = ship.bytes_shipped
            dmsd.write(0, PAGE)  # change one page
            yield from ship.ship_now()
            return first, ship.bytes_shipped - first

        p = sim.process(scenario())
        sim.run(until=p)
        first, second = p.value
        assert first == 8 * PAGE
        assert second == PAGE

    def test_idle_cycles_ship_nothing(self):
        sim = Simulator()
        _net, dmsd, ship = make_env(sim)
        dmsd.write(0, 2 * PAGE)

        def cycles():
            for _ in range(8):
                yield from ship.ship_now()

        sim.run(until=sim.process(cycles()))
        # Only the first cycle had a delta.
        assert ship.bytes_shipped == 2 * PAGE
        assert ship.cycles == 8

    def test_failed_target_skips_cycle(self):
        """A cycle against a down site ships nothing and keeps the old
        baseline, so the next cycle re-diffs and nothing is lost."""
        sim = Simulator()
        net, dmsd, ship = make_env(sim)
        dmsd.write(0, PAGE)
        net.sites["b"].fail()

        def cycle():
            yield from ship.ship_now()

        with pytest.raises(NoRouteError):
            sim.run(until=sim.process(cycle()))
        assert ship.bytes_shipped == 0 and ship.cycles == 0
        # The failed cycle's snapshot was released: overwriting the page
        # frees the old copy instead of leaving it pinned.
        dmsd.write(0, PAGE)
        assert dmsd.allocator.live_pages() == dmsd.mapped_pages == 1
        net.sites["b"].repair()
        sim.run(until=sim.process(cycle()))
        assert ship.bytes_shipped == PAGE

    def test_baseline_snapshots_recycled(self):
        """Old baselines are deleted: space does not grow with cycles."""
        sim = Simulator()
        _net, dmsd, ship = make_env(sim)
        dmsd.write(0, 2 * PAGE)

        def churn():
            for i in range(10):
                yield from ship.ship_now()
                dmsd.write((i % 4) * PAGE, PAGE)

        sim.run(until=sim.process(churn()))
        # Live pages: device (<=5 mapped) + one baseline snapshot refs.
        assert dmsd.allocator.live_pages() <= 2 * dmsd.mapped_pages + 2
