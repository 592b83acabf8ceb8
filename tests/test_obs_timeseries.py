"""Unit tests for labeled time-series metrics (repro.obs.timeseries)."""

import json

import pytest

from repro.obs import Series, SeriesRegistry, ThresholdSLO, Window
from repro.sim import Simulator


def make_series(interval=1.0, capacity=8, kind="sample"):
    sim = Simulator()
    s = Series(sim, "m", (), interval, capacity, kind=kind)
    return sim, s


class _Only:
    """A registry that matches one series, whatever the query."""

    def __init__(self, series):
        self.series = series

    def match(self, name, **labels):
        return [self.series]


def slot_fraction(s, t0, t1, stat, bound, op="gt"):
    """Share of ``s``'s slots in ``[t0, t1)`` whose value of ``stat`` is
    past ``bound``, as a ThresholdSLO counts them (None: no slot)."""
    slo = ThresholdSLO("t", 0.9, s.name, bound, stat=stat, op=op)
    return slo.error_fraction(_Only(s), t0, t1)


class TestWindow:
    def test_stats_and_avg(self):
        w = Window(10.0, 4, 8.0, 1.0, 3.0, 3.0)
        assert w.avg == 2.0
        assert w.stat("sum") == 8.0
        assert w.stat("avg") == 2.0
        assert w.stat("min") == 1.0
        assert w.stat("max") == 3.0
        assert w.stat("p99") == 3.0
        assert w.stat("count") == 4.0

    def test_empty_window_avg_is_zero(self):
        assert Window(0.0, 0, 0.0, 0.0, 0.0, 0.0).avg == 0.0

    def test_as_dict_round_trips_through_json(self):
        w = Window(5.0, 2, 3.0, 1.0, 2.0, 2.0)
        assert json.loads(json.dumps(w.as_dict()))["count"] == 2.0


class TestSeries:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Series(sim, "m", (), 0.0, 8)
        with pytest.raises(ValueError):
            Series(sim, "m", (), 1.0, 0)
        with pytest.raises(ValueError):
            Series(sim, "m", (), 1.0, 8, kind="gauge")

    def test_bucket_roll_closes_window(self):
        sim, s = make_series()
        s.record(1.0)
        s.record(3.0)
        sim.now = 1.5          # next bucket: first record closes the old one
        s.record(9.0)
        ws = s.windows()
        assert len(ws) == 2
        assert ws[0].start == 0.0
        assert ws[0].count == 2
        assert ws[0].total == 4.0
        assert ws[0].min == 1.0 and ws[0].max == 3.0
        assert ws[1].start == 1.0 and ws[1].count == 1

    def test_p99_is_nearest_rank_not_interpolated(self):
        sim, s = make_series()
        for v in range(1, 101):  # 1..100 in one bucket
            s.record(float(v))
        (w,) = s.windows()
        assert w.p99 == 99.0     # ceil(0.99*100) = 99th order statistic
        # A single sample is its own p99.
        sim.now = 5.0
        s.record(42.0)
        assert s.windows()[-1].p99 == 42.0

    def test_incr_counter_semantics(self):
        sim, s = make_series()
        s.incr()
        s.incr(4.0)
        (w,) = s.windows()
        assert w.total == 5.0 and w.count == 2
        assert s.total_sum == 5.0

    def test_last_and_totals_survive_ring_eviction(self):
        sim, s = make_series(capacity=2)
        for i in range(5):
            sim.now = float(i)
            s.record(float(i))
        assert len(s.windows()) == 2          # ring kept the newest two
        assert s.windows_dropped == 3
        assert s.last == 4.0
        assert s.total_count == 5              # whole-run totals unaffected

    def test_window_at_and_ranges(self):
        sim, s = make_series()
        for t, v in ((0.5, 1.0), (2.5, 2.0), (3.5, 4.0)):
            sim.now = t
            s.record(v)
        sim.now = 10.0
        assert s.window_at(2.9).total == 2.0
        assert s.window_at(1.5) is None        # empty slot never existed
        assert [w.start for w in s.range_windows(2.0, 4.0)] == [2.0, 3.0]
        assert s.range_sum(0.0, 4.0) == 7.0

    def test_window_at_finds_every_bucket_of_an_inexact_interval(self):
        # 0.1 has no exact binary form: the slot of a window is its bucket
        # number itself, never re-derived from the window's float start.
        sim, s = make_series(interval=0.1, capacity=2000)
        for k in range(2000):
            sim.now = (k + 0.5) * 0.1
            s.record(float(k))
        sim.now = 2000 * 0.1
        for k in range(2000):
            w = s.window_at((k + 0.5) * 0.1)
            assert w is not None and w.total == float(k), k
        assert s.window_at(9.15).total == 91.0
        # Slots 91 and 92 lie in [9.15, 9.35); only 92.0 exceeds 91.5.
        assert slot_fraction(s, 9.15, 9.35, "max", 91.5) == 0.5

    def test_slot_stats_sample_skips_empty_slots(self):
        sim, s = make_series()
        sim.now = 0.0
        s.record(1.0)
        sim.now = 3.0
        s.record(5.0)
        sim.now = 4.0
        # Two observed slots (1.0 and 5.0), not four.
        assert slot_fraction(s, 0.0, 4.0, "max", 2.0) == 0.5

    def test_slot_stats_level_carries_forward(self):
        sim, s = make_series(kind="level")
        sim.now = 1.0
        s.record(2.0)          # level rises at t=1 and is never re-recorded
        sim.now = 6.0
        s.record(0.0)
        sim.now = 8.0
        # Slots 1..5 carry the 2.0 level and slots 6..7 read 0.0; slot 0
        # precedes any observation, so seven slots count.
        assert slot_fraction(s, 0.0, 8.0, "max", 1.0) == 5 / 7
        assert slot_fraction(s, 0.0, 8.0, "max", 1.0, op="lt") == 2 / 7

    def test_slot_stats_level_uses_value_prior_to_range(self):
        # A 6-hour outage recorded only at its edges must read as "down"
        # in a window that starts mid-outage.
        sim, s = make_series(kind="level")
        sim.now = 0.0
        s.record(1.0)
        sim.now = 10.0
        s.record(1.0)          # close the first bucket into the ring
        sim.now = 12.0
        assert slot_fraction(s, 4.0, 8.0, "max", 0.5) == 1.0

    @pytest.mark.parametrize("stat", ["min", "avg", "count", "max", "p99"])
    def test_slot_stats_level_carry_does_not_depend_on_t0(self, stat):
        # A level window carries its max into the empty slots after it,
        # whether the range starts before the window or after it.
        sim, s = make_series(kind="level")
        s.record(1.0)
        s.record(5.0)          # slot 0: min 1.0, max 5.0
        sim.now = 4.0
        own = {"min": 1.0, "avg": 3.0, "count": 2.0, "max": 5.0,
               "p99": 5.0}[stat]
        # Slots 1..3 carry 5.0 past the bound; slot 0 reads its own stat.
        assert slot_fraction(s, 0.0, 4.0, stat, 4.5) == (3 + (own > 4.5)) / 4
        assert slot_fraction(s, 3.0, 4.0, stat, 4.5) == 1.0

    def test_flush_mid_slot_splits_it_and_the_later_window_decides(self):
        sim, s = make_series()
        sim.now = 0.25
        s.record(1.0)
        sim.now = 0.5
        s.flush()              # an evaluation boundary inside slot 0
        s.record(3.0)
        sim.now = 2.0
        assert [w.start for w in s.windows()] == [0.0, 0.0]
        assert slot_fraction(s, 0.0, 2.0, "max", 2.0) == 1.0
        assert s.range_sum(0.0, 1.0) == 4.0     # both windows count
        assert s.window_at(0.7).total == 1.0    # the first one covers it

    def test_queries_ignore_windows_dropped_from_the_ring(self):
        sim, s = make_series(capacity=2, kind="level")
        for t in (0.0, 1.0, 2.0):
            sim.now = t
            s.record(t)
        sim.now = 5.0
        assert s.window_at(0.5) is None       # the query flushes slot 2 in
        assert s.windows_dropped == 1
        assert s.range_sum(0.0, 5.0) == 3.0
        # Slots 1..4 read 1.0, 2.0, 2.0, 2.0; dropped slot 0 is not counted.
        assert slot_fraction(s, 0.0, 5.0, "max", 1.5) == 3 / 4

    def test_label_str_formats_and_sorts(self):
        sim = Simulator()
        s = Series(sim, "m", (("blade", 3), ("site", "dr")), 1.0, 8)
        assert s.label_str() == '{blade="3",site="dr"}'
        assert Series(sim, "m", (), 1.0, 8).label_str() == ""

    def test_summary_aggregates_over_retention(self):
        sim, s = make_series()
        sim.now = 0.0
        s.record(2.0)
        sim.now = 1.0
        s.record(6.0)
        summ = s.summary()
        assert summ["count"] == 2.0
        assert summ["sum"] == 8.0
        assert summ["max"] == 6.0
        assert summ["avg"] == 4.0
        assert summ["last"] == 6.0


class TestSeriesRegistry:
    def test_label_order_is_identity_insensitive(self):
        reg = SeriesRegistry(Simulator())
        a = reg.series("x", site="a", blade=1)
        b = reg.series("x", blade=1, site="a")
        assert a is b
        b.record(1.0)
        assert len(reg) == 1

    def test_get_does_not_create(self):
        reg = SeriesRegistry(Simulator())
        assert reg.get("x") is None
        handle = reg.series("x")
        assert reg.get("x") is handle
        assert len(reg) == 0                   # bound, not yet observed
        handle.record(1.0)
        assert len(reg) == 1

    def test_match_is_subset_match(self):
        reg = SeriesRegistry(Simulator())
        reg.series("lat", blade=0, op="read").record(1.0)
        reg.series("lat", blade=1, op="read").record(2.0)
        reg.series("lat", blade=1, op="write").record(3.0)
        reg.series("other", blade=1).record(4.0)
        assert len(reg.match("lat")) == 3
        assert len(reg.match("lat", op="read")) == 2
        assert len(reg.match("lat", blade=1, op="write")) == 1
        assert reg.match("lat", tenant="hpc") == []

    def test_match_sees_series_created_after_a_lookup(self):
        reg = SeriesRegistry(Simulator())
        reg.series("lat", site="b").record(1.0)
        assert len(reg.match("lat")) == 1
        reg.series("lat", site="a").record(1.0)
        reg.get("lat", site="c")               # a lookup creates nothing
        assert [s.labels for s in reg.match("lat")] == [
            (("site", "a"),), (("site", "b"),)]

    def test_unobserved_handle_is_not_listed(self):
        reg = SeriesRegistry(Simulator())
        reg.series("seen").record(1.0)
        before = (reg.to_json(), reg.to_prometheus(), reg.snapshot(),
                  reg.format_table())
        matched = reg.match("lat")
        handle = reg.series("lat", blade=0)
        reg.level("lvl", site="a")
        assert len(reg) == 1
        assert [s.name for s in reg.all_series()] == ["seen"]
        assert (reg.to_json(), reg.to_prometheus(), reg.snapshot(),
                reg.format_table()) == before
        assert reg.match("lat") == matched == []
        handle.record(2.0)                 # the first observation lists it
        assert len(reg) == 2
        assert reg.match("lat") == [handle]
        assert 'lat{blade="0"}.sum' in reg.snapshot()

    def test_snapshot_keys_carry_labels(self):
        reg = SeriesRegistry(Simulator())
        reg.series("ops", tenant="hpc").incr(3.0)
        snap = reg.snapshot()
        assert snap['ops{tenant="hpc"}.sum'] == 3.0
        assert snap['ops{tenant="hpc"}.count'] == 1.0
        assert reg.export_snapshot() == snap

    def test_to_json_is_deterministic(self):
        def build():
            reg = SeriesRegistry(Simulator())
            reg.series("b").record(1.0)
            reg.series("a", k="v").record(2.0)
            return reg.to_json()
        assert build() == build()

    def test_prometheus_exposition(self):
        reg = SeriesRegistry(Simulator())
        reg.series("cache.read_latency_s", blade=2).record(0.5)
        text = reg.to_prometheus()
        assert "# TYPE netstorage_cache_read_latency_s gauge" in text
        assert ('netstorage_cache_read_latency_s_total{blade="2"} 0.5'
                in text)
        assert text.endswith("\n")
        # Metric names are sanitized, never empty.
        reg2 = SeriesRegistry(Simulator())
        reg2.series("9bad-name!").record(1.0)
        assert "netstorage_bad_name_" in reg2.to_prometheus()

    def test_format_table_clips_and_titles(self):
        reg = SeriesRegistry(Simulator())
        for i in range(5):
            reg.series("m", i=i).record(float(i))
        table = reg.format_table(max_rows=3)
        assert "5 series" in table
        assert "2 not shown" in table

    def test_registry_never_schedules_events(self):
        sim = Simulator()
        reg = SeriesRegistry(sim)
        reg.series("x").record(1.0)
        reg.level("y").record(2.0)
        assert not sim._queue
