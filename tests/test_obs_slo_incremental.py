"""Differential oracle for incremental burn-rate evaluation.

``ThresholdSLO`` counts slots incrementally and ``Series`` answers range
queries from its slot index.  This file keeps the straightforward rescan
of the whole retention ring as the reference and checks, on generated
record streams and on the declared E12f SLO campaign, that every query
the monitor makes gets the same answer from both, and that the alert
records are identical.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import (BurnWindow, RatioSLO, SLOMonitor, SeriesRegistry,
                       ThresholdSLO)
from repro.obs.timeseries import STATS
from repro.plan import ScenarioSpec, plan_storage
from repro.sim import Simulator


# -- the reference: rescan every retained window on every query --------------

def ref_match(registry, name, labels):
    want = set(labels.items())
    return [s for s in registry.all_series()
            if s.name == name and want.issubset(set(s.labels))]


def ref_range_sum(series, t0, t1):
    return sum(w.total for w in series.windows() if t0 <= w.start < t1)


def ref_slot_stats(series, t0, t1, stat):
    """Per-slot values: the later window decides a split slot, and a level
    series carries the ``max`` of the latest window before an empty slot."""
    first = int(t0 / series.interval)
    last = int(t1 / series.interval)
    ring = series.windows()
    # A window starts at bucket * interval, so rounding recovers its
    # bucket number exactly; truncating can land one slot early.
    by_idx = {round(w.start / series.interval): w for w in ring}
    level = series.kind == "level"
    carried = None
    if level:
        prior = [w for w in ring
                 if round(w.start / series.interval) < first]
        if prior:
            carried = prior[-1].max
    for idx in range(first, last):
        w = by_idx.get(idx)
        if w is not None:
            if level:
                carried = w.max
            yield w.stat(stat)
        elif level and carried is not None:
            yield carried


def ref_error_fraction(slo, registry, t0, t1):
    if isinstance(slo, RatioSLO):
        good = sum(ref_range_sum(s, t0, t1)
                   for s in ref_match(registry, slo.good, slo.labels))
        bad = sum(ref_range_sum(s, t0, t1)
                  for s in ref_match(registry, slo.bad, slo.labels))
        total = good + bad
        return None if total <= 0 else bad / total
    worst = None
    for s in ref_match(registry, slo.series, slo.labels):
        total = bad = 0
        for value in ref_slot_stats(s, t0, t1, slo.stat):
            total += 1
            if (value > slo.bound if slo.op == "gt" else value < slo.bound):
                bad += 1
        if total:
            frac = bad / total
            if worst is None or frac > worst:
                worst = frac
    return worst


class RefThresholdSLO(ThresholdSLO):
    def error_fraction(self, registry, t0, t1):
        return ref_error_fraction(self, registry, t0, t1)


class RefRatioSLO(RatioSLO):
    def error_fraction(self, registry, t0, t1):
        return ref_error_fraction(self, registry, t0, t1)


def checked(slo, queries):
    """Make every ``error_fraction`` call of ``slo`` also run the reference
    on the same ring state and log both answers to ``queries``."""
    incremental = slo.error_fraction

    def error_fraction(registry, t0, t1):
        got = incremental(registry, t0, t1)
        want = ref_error_fraction(slo, registry, t0, t1)
        queries.append((slo.name, t0, t1, got, want))
        if isinstance(slo, RatioSLO):
            for name in (slo.good, slo.bad):
                for s in registry.match(name, **slo.labels):
                    assert s.range_sum(t0, t1) == ref_range_sum(s, t0, t1)
        return got

    slo.error_fraction = error_fraction
    return slo


# -- generated record streams ------------------------------------------------

#: (name, labels, kind) of every series a stream may record into.
SERIES = (("lat", (("site", "a"),), "sample"),
          ("lat", (("site", "b"),), "sample"),
          ("down", (), "level"),
          ("ok", (), "sample"),
          ("bad", (), "sample"))

VALUES = (0.0, 0.5, 1.0, 2.0)

#: Time steps in units of the interval: 0 keeps the time, whole numbers
#: land exactly on a boundary, fractions land mid-slot.
STEPS = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0)

records = st.tuples(st.just("record"), st.sampled_from(range(len(SERIES))),
                    st.sampled_from(VALUES), st.sampled_from(STEPS))
evaluations = st.tuples(st.just("eval"), st.just(0), st.just(0.0),
                        st.sampled_from(STEPS))

windows = st.builds(
    lambda short, extra, factor, sev: BurnWindow(
        short_s=short, long_s=short + extra, factor=factor, severity=sev),
    st.sampled_from((1.0, 2.0, 2.5, 4.0)),
    st.sampled_from((0.0, 3.0, 6.5, 12.0)),
    st.sampled_from((1.0, 2.0, 5.0)),
    st.sampled_from(("page", "ticket")))


@st.composite
def campaigns(draw):
    interval = draw(st.sampled_from((1.0, 0.5, 0.1, 60.0)))
    capacity = draw(st.integers(1, 4))
    steps = draw(st.lists(st.one_of(records, evaluations),
                          min_size=10, max_size=80))
    slos = [
        ThresholdSLO("lat", draw(st.sampled_from((0.5, 0.9))), series="lat",
                     bound=draw(st.sampled_from(VALUES)),
                     stat=draw(st.sampled_from(STATS)),
                     op=draw(st.sampled_from(("gt", "lt"))),
                     labels=draw(st.sampled_from(({}, {"site": "a"}))),
                     windows=tuple(draw(st.lists(windows, max_size=2)))),
        ThresholdSLO("down", 0.9, series="down",
                     bound=draw(st.sampled_from(VALUES)),
                     stat=draw(st.sampled_from(STATS)),
                     op=draw(st.sampled_from(("gt", "lt"))),
                     windows=tuple(draw(st.lists(windows, max_size=2)))),
        RatioSLO("errors", 0.9, good="ok", bad="bad",
                 windows=tuple(draw(st.lists(windows, max_size=2)))),
    ]
    return interval, capacity, steps, slos


def rebuild(slo, windows, threshold_cls=ThresholdSLO, ratio_cls=RatioSLO):
    """A fresh ``slo`` (no incremental state) of the given class."""
    if isinstance(slo, RatioSLO):
        return ratio_cls(slo.name, slo.objective, good=slo.good, bad=slo.bad,
                         labels=slo.labels, windows=windows)
    return threshold_cls(slo.name, slo.objective, series=slo.series,
                         bound=slo.bound, stat=slo.stat, op=slo.op,
                         labels=slo.labels, windows=windows)


def replay(interval, capacity, steps, slos, reference):
    """Drive one registry and monitor through ``steps``.  Steps and burn
    windows are in units of the interval, so windows span a few slots."""
    sim = Simulator()
    reg = SeriesRegistry(sim, interval=interval, capacity=capacity)
    mon = SLOMonitor(sim, reg)
    queries = []
    for slo in slos:
        scaled = tuple(replace(w, short_s=w.short_s * interval,
                               long_s=w.long_s * interval)
                       for w in slo.windows)
        if reference:
            mon.add(rebuild(slo, scaled, RefThresholdSLO, RefRatioSLO))
        else:
            mon.add(checked(rebuild(slo, scaled), queries))
    now = 0.0
    for op, which, value, step in steps:
        now += step
        sim.now = now * interval
        if op == "record":
            name, labels, kind = SERIES[which]
            getter = reg.level if kind == "level" else reg.series
            getter(name, **dict(labels)).record(value)
        else:
            mon.evaluate()
            for slo in mon.slos():
                mon.health_probe(slo.name)
    return mon, reg, queries


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(campaigns())
def test_incremental_matches_rescan(campaign):
    interval, capacity, steps, slos = campaign
    mon, reg, queries = replay(interval, capacity, steps, slos,
                               reference=False)
    for _name, _t0, _t1, got, want in queries:
        assert got == want
    ref_mon, ref_reg, _ = replay(interval, capacity, steps, slos,
                                 reference=True)
    assert ([a.as_dict() for a in mon.alerts]
            == [a.as_dict() for a in ref_mon.alerts])
    assert reg.to_json() == ref_reg.to_json()


def test_split_slots_and_eviction_against_rescan():
    """A hand-built stream that always reaches what generated ones may
    miss: an evaluation splits every slot in two, the ring drops windows
    the running counts already hold, and the long window reaches past
    the oldest retained window."""
    slos = [ThresholdSLO("down", 0.9, series="down", bound=0.5, stat="min",
                         windows=(BurnWindow(2.0, 12.0, 1.0, "page"),)),
            ThresholdSLO("lat", 0.9, series="lat", bound=0.5, stat="p99",
                         windows=(BurnWindow(1.0, 12.0, 1.0, "page"),))]
    steps = []
    for k in range(16):
        v = float(k % 3 == 0)
        steps += [("record", 2, v, 0.25), ("record", 0, 1.0 - v, 0.0),
                  ("eval", 0, 0.0, 0.25),           # mid-slot flush
                  ("record", 2, 1.0 - v, 0.25), ("record", 0, v, 0.0),
                  ("eval", 0, 0.0, 0.25)]           # on the boundary
    mon, reg, queries = replay(1.0, 3, steps, slos, reference=False)
    assert reg.get("down").windows_dropped > 16
    for slo in mon.slos():      # the running counts stay bounded by the ring
        assert all(len(c.slots) <= 2 * reg.capacity
                   for c in slo._counts.values())
    assert len({got for *_q, got, _want in queries}) > 2
    for _name, _t0, _t1, got, want in queries:
        assert got == want
    ref_mon, _reg, _ = replay(1.0, 3, steps, slos, reference=True)
    assert mon.alerts
    assert ([a.as_dict() for a in mon.alerts]
            == [a.as_dict() for a in ref_mon.alerts])


def test_inexact_interval_against_rescan():
    """At interval 0.1 a window's float start truncates into the slot
    before its bucket for buckets such as 43, 81, 86 and 91; every slot
    must still be counted under its own bucket number."""
    slos = [ThresholdSLO("down", 0.9, series="down", bound=0.5, stat="min",
                         windows=(BurnWindow(2.0, 6.0, 1.0, "page"),)),
            ThresholdSLO("lat", 0.9, series="lat", bound=0.5, stat="max",
                         windows=(BurnWindow(1.0, 4.0, 1.0, "page"),))]
    steps = [("record", 0, 0.0, 0.5)]
    for k in range(1, 100):
        v = float(k % 2)
        steps += [("record", 2, v, 1.0), ("record", 0, 1.0 - v, 0.0)]
        if k % 3 == 0:
            steps.append(("eval", 0, 0.0, 0.0))
    mon, _reg, queries = replay(0.1, 200, steps, slos, reference=False)
    assert len({got for *_q, got, _want in queries}) > 2
    for _name, _t0, _t1, got, want in queries:
        assert got == want
    ref_mon, _reg, _ = replay(0.1, 200, steps, slos, reference=True)
    assert ([a.as_dict() for a in mon.alerts]
            == [a.as_dict() for a in ref_mon.alerts])


# -- the declared E12f campaign ----------------------------------------------

E12F = {
    "name": "e12f-slo", "seed": 42, "horizon_s": 43200.0,
    "cluster": {"blade_count": 4, "disk_count": 16,
                "disk_capacity": 67108864},
    "observability": True, "tracing": False, "integrity": True,
    "series_interval_s": 60.0, "series_capacity": 720,
    "workload": {"clients": 1, "op_bytes": 1048576, "period_s": 120.0,
                 "path": "/slo/data"},
    "faults": {"faults": [
        {"at": 7200.0, "kind": "blade_crash", "target": "blade1",
         "duration": 3600.0},
        {"at": 21600.0, "kind": "slow_node", "target": "blade3",
         "duration": 3600.0, "severity": 4.0},
        {"at": 32400.0, "kind": "blade_crash", "target": "blade2",
         "duration": 1800.0}]},
}


def e12f_campaign(threshold_cls, ratio_cls):
    built = plan_storage(ScenarioSpec.from_dict(E12F)).build(Simulator())
    obs = built.obs
    obs.series.level("cluster.blades_down").record(0.0)
    obs.add_slo(threshold_cls("blades-up", 0.999,
                              series="cluster.blades_down", bound=0.0,
                              stat="max"))
    obs.add_slo(threshold_cls("client-latency", 0.99,
                              series="client.latency_s", bound=0.0003,
                              stat="p99", labels={"op": "read"}))
    obs.add_slo(ratio_cls("client-errors", 0.999, good="client.ops_ok",
                          bad="client.ops_failed"))
    obs.slo.start(period=60.0)
    built.run()
    return obs


def test_e12f_campaign_matches_rescan():
    obs = e12f_campaign(ThresholdSLO, RatioSLO)
    ref = e12f_campaign(RefThresholdSLO, RefRatioSLO)
    alerts = [a.as_dict() for a in obs.slo.alerts]
    assert {a["slo"] for a in alerts} == {"blades-up", "client-latency"}
    assert obs.slo.evaluations == ref.slo.evaluations == 720
    assert alerts == [a.as_dict() for a in ref.slo.alerts]
    assert obs.series.to_json() == ref.series.to_json()
    assert obs.slo.to_prometheus() == ref.slo.to_prometheus()
