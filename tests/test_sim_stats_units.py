"""Unit tests for metric collectors, units, and RNG streams."""

import numpy as np
import pytest

from repro.sim import Counter, MetricSet, RngStreams, Simulator, Tally, TimeWeighted
from repro.sim import units


class TestTally:
    def test_mean_and_variance(self):
        t = Tally()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            t.record(v)
        assert t.mean() == pytest.approx(5.0)
        assert t.std() == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))
        assert t.min == 2.0
        assert t.max == 9.0
        assert t.count == 8

    def test_empty_tally_safe(self):
        t = Tally()
        assert t.mean() == 0.0
        assert t.variance() == 0.0
        assert t.percentile(50) == 0.0

    def test_percentile(self):
        t = Tally()
        for v in range(101):
            t.record(float(v))
        assert t.percentile(50) == pytest.approx(50.0)
        assert t.percentile(99) == pytest.approx(99.0)


class TestTimeWeighted:
    def test_time_weighted_mean(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=0.0)

        def proc():
            tw.record(10.0)
            yield sim.timeout(2.0)
            tw.record(0.0)
            yield sim.timeout(2.0)

        sim.process(proc())
        sim.run()
        assert tw.mean() == pytest.approx(5.0)
        assert tw.max == 10.0

    def test_add_adjusts_level(self):
        sim = Simulator()
        tw = TimeWeighted(sim)
        tw.add(3.0)
        tw.add(-1.0)
        assert tw.level == pytest.approx(2.0)

    def test_mean_with_no_elapsed_time(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=7.0)
        assert tw.mean() == 7.0

    def test_max_tracks_through_add_decrease_then_rise(self):
        # max must follow the level through add() even when it dips and
        # then climbs past the old peak (queue-depth style usage).
        sim = Simulator()
        tw = TimeWeighted(sim)
        tw.add(5.0)
        assert tw.max == 5.0
        tw.add(-4.0)          # dip: peak must be retained
        assert tw.max == 5.0
        tw.add(2.0)           # rise below old peak: unchanged
        assert tw.max == 5.0
        tw.add(4.0)           # rise past the old peak: new max
        assert tw.level == pytest.approx(7.0)
        assert tw.max == 7.0

    def test_max_with_negative_start(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=-2.0)
        tw.add(-1.0)
        assert tw.max == -2.0  # initial level is the peak so far
        tw.add(2.5)
        assert tw.max == pytest.approx(-0.5)


def test_counter():
    c = Counter()
    c.incr()
    c.incr(5)
    assert c.value == 6


def test_metric_set_snapshot():
    sim = Simulator()
    m = MetricSet()
    m.tally("lat").record(0.5)
    m.counter("hits").incr(3)
    depth = TimeWeighted(sim)

    def proc():
        depth.record(4.0)
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    snap = m.snapshot()
    assert snap["lat.mean"] == 0.5
    assert snap["lat.count"] == 1
    assert snap["hits"] == 3
    assert depth.mean() == pytest.approx(4.0)
    assert set(snap) == {"lat.mean", "lat.count", "lat.min", "lat.max",
                         "lat.std", "lat.p50", "lat.p95", "lat.p99", "hits"}


def test_metric_set_returns_same_collector():
    m = MetricSet()
    assert m.tally("x") is m.tally("x")
    assert m.counter("y") is m.counter("y")


def test_snapshot_includes_spread_and_percentiles():
    sim = Simulator()
    m = MetricSet()
    t = m.tally("lat")
    for v in range(1, 101):
        t.record(float(v))
    depth = TimeWeighted(sim)
    depth.record(3.0)
    depth.record(1.0)
    snap = m.snapshot()
    assert snap["lat.min"] == 1.0
    assert snap["lat.max"] == 100.0
    assert snap["lat.std"] == pytest.approx(t.std())
    assert snap["lat.p50"] == pytest.approx(50.5)
    assert snap["lat.p95"] == pytest.approx(95.05)
    assert snap["lat.p99"] == pytest.approx(99.01)
    assert depth.max == 3.0
    # Empty tallies stay minimal: no min/max noise before data arrives.
    m.tally("unused")
    snap2 = m.snapshot()
    assert "unused.min" not in snap2
    assert snap2["unused.count"] == 0


class TestMetricSetEdgeCases:
    """Snapshot boundary behavior the reports depend on."""

    def test_empty_set_snapshot_is_empty(self):
        m = MetricSet()
        assert m.snapshot() == {}

    def test_single_sample_tally_snapshot(self):
        # One observation: percentiles collapse onto the sample, std is 0
        # (ddof=1 with n=1 would divide by zero; the Tally reports 0).
        m = MetricSet()
        m.tally("lat").record(0.25)
        snap = m.snapshot()
        assert snap["lat.mean"] == 0.25
        assert snap["lat.count"] == 1
        assert snap["lat.min"] == snap["lat.max"] == 0.25
        assert snap["lat.std"] == 0.0
        assert snap["lat.p50"] == snap["lat.p95"] == snap["lat.p99"] == 0.25

    def test_two_sample_quantile_interpolation(self):
        # numpy's default linear interpolation between the two order
        # statistics: p50 of {0, 1} is the midpoint, p99 sits 99 % of the
        # way up — the window-boundary behavior the latency reports show.
        m = MetricSet()
        t = m.tally("lat")
        t.record(0.0)
        t.record(1.0)
        snap = m.snapshot()
        assert snap["lat.p50"] == pytest.approx(0.5)
        assert snap["lat.p95"] == pytest.approx(0.95)
        assert snap["lat.p99"] == pytest.approx(0.99)

    def test_extreme_quantiles_clamp_to_samples(self):
        t = Tally()
        for v in (3.0, 1.0, 2.0):
            t.record(v)
        assert t.percentile(0.0) == 1.0
        assert t.percentile(100.0) == 3.0

    def test_identical_samples_have_flat_quantiles(self):
        t = Tally()
        for _ in range(10):
            t.record(7.0)
        assert t.percentiles([50.0, 95.0, 99.0]) == [7.0, 7.0, 7.0]
        assert t.std() == 0.0


class TestUnits:
    def test_sizes(self):
        assert units.kib(1) == 1024
        assert units.mib(2) == 2 * 1024**2
        assert units.gib(1) == 1024**3
        assert units.gb(1) == 10**9
        assert units.tb(0.5) == 5 * 10**11

    def test_rates_round_trip(self):
        assert units.gbps(2) == pytest.approx(2.5e8)
        assert units.to_gbps(units.gbps(10)) == pytest.approx(10.0)
        assert units.to_mb_per_s(units.mb_per_s(123)) == pytest.approx(123.0)

    def test_time(self):
        assert units.ms(5) == pytest.approx(0.005)
        assert units.us(2) == pytest.approx(2e-6)
        assert units.hours(1) == 3600.0
        assert units.days(2) == 172800.0

    def test_wan_latency_scales_with_distance(self):
        near = units.wan_latency(10)
        far = units.wan_latency(4000)
        assert far > near
        # ~20ms one-way for 4000 km of fibre plus equipment delay
        assert far == pytest.approx(0.0202, rel=0.01)

    def test_wan_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            units.wan_latency(-1)

    def test_formatting(self):
        assert units.fmt_bytes(512) == "512 B"
        assert units.fmt_bytes(units.gib(2)) == "2.00 GiB"
        assert units.fmt_rate(units.gbps(10)).startswith("10.00 Gb/s")
        assert "Mb/s" in units.fmt_rate(units.mbps(5))


class TestRngStreams:
    def test_same_name_same_sequence(self):
        a = RngStreams(7).fresh("disk")
        b = RngStreams(7).fresh("disk")
        assert np.allclose(a.random(10), b.random(10))

    def test_different_names_differ(self):
        s = RngStreams(7)
        a = s.fresh("disk")
        b = s.fresh("net")
        assert not np.allclose(a.random(10), b.random(10))

    def test_different_seeds_differ(self):
        a = RngStreams(1).fresh("disk")
        b = RngStreams(2).fresh("disk")
        assert not np.allclose(a.random(10), b.random(10))

    def test_stream_is_stateful_and_cached(self):
        s = RngStreams(3)
        g1 = s.stream("w")
        first = g1.random()
        g2 = s.stream("w")
        assert g1 is g2
        assert g2.random() != first  # advanced, not reset

    def test_spawn_indexed_children(self):
        s = RngStreams(5)
        c0 = s.spawn("client", 0)
        c1 = s.spawn("client", 1)
        assert not np.allclose(c0.random(5), c1.random(5))

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("abc")  # type: ignore[arg-type]
