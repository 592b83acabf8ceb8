"""Tracer: span nesting, Chrome export, and byte-level determinism."""

import json

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.obs import NULL_SPAN, Severity, enable
from repro.obs.tracer import Tracer
from repro.sim.units import mib


def test_span_records_simulated_time():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("outer", kind="test") as sp:
            yield sim.timeout(2.0)
            with sp.child("inner"):
                yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert len(tracer.spans) == 2
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.begin == 0.0 and outer.end == 3.0
    assert inner.begin == 2.0 and inner.end == 3.0
    assert inner.parent is outer
    assert inner.tid == outer.tid  # children share the root's track
    assert not tracer.nesting_violations()


def test_concurrent_roots_get_distinct_tracks():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc(delay):
        with tracer.span("op", delay=delay):
            yield sim.timeout(delay)

    sim.process(proc(1.0))
    sim.process(proc(2.0))
    sim.run()
    tids = {s.tid for s in tracer.spans}
    assert len(tids) == 2


def test_chrome_trace_is_valid_json_with_sane_events():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("a", n=1) as sp:
            yield sim.timeout(0.5)
            sp.event("mark", note="hi")
            with sp.child("b"):
                yield sim.timeout(0.25)

    sim.process(proc())
    sim.run()
    doc = json.loads(tracer.to_json())
    assert "traceEvents" in doc
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(complete) == 2 and len(instants) == 1
    for ev in complete:
        assert ev["dur"] >= 0
        assert set(ev) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
    assert instants[0]["args"] == {"note": "hi"}


def test_disabled_tracer_returns_null_span():
    sim = Simulator()
    tracer = Tracer(sim, enabled=False)
    sp = tracer.span("anything", x=1)
    assert sp is NULL_SPAN
    with sp as inner:
        assert inner.child("nested") is NULL_SPAN
        inner.annotate(y=2).event("e")
    assert tracer.spans == []


def test_null_span_parent_treated_as_root():
    sim = Simulator()
    tracer = Tracer(sim)
    with tracer.span("root", parent=NULL_SPAN) as sp:
        pass
    assert sp.parent is None
    assert sp.tid == sp.sid


def test_max_spans_bound_drops_and_counts():
    sim = Simulator()
    tracer = Tracer(sim, max_spans=3)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2


def test_error_exit_annotates_span():
    sim = Simulator()
    tracer = Tracer(sim)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert tracer.spans[0].attrs["error"] is True


def test_breakdown_aggregates_by_name():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        for _ in range(3):
            with tracer.span("stage"):
                yield sim.timeout(2.0)

    sim.process(proc())
    sim.run()
    agg = tracer.breakdown()["stage"]
    assert agg["count"] == 3
    assert agg["total_s"] == pytest.approx(6.0)
    assert agg["mean_s"] == pytest.approx(2.0)
    assert agg["max_s"] == pytest.approx(2.0)


def _traced_system_run(seed: int) -> str:
    """A quickstart-sized workload with tracing on; returns the trace JSON."""
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        seed=seed, observability=True))
    system.start()
    system.create("/projects/results.h5")
    system.create("/scratch/tmp")

    def client():
        yield system.write("/projects/results.h5", 0, mib(2))
        yield system.read("/projects/results.h5", 0, mib(2))
        yield system.write("/scratch/tmp", 0, mib(1))
        yield system.read("/scratch/tmp", 0, mib(1))

    sim.process(client())
    sim.run(until=30.0)
    return system.obs.tracer.to_json()


def test_trace_determinism_same_seed_byte_identical():
    # The acceptance bar: same seed => byte-identical trace JSON.
    assert _traced_system_run(7) == _traced_system_run(7)


def test_system_trace_spans_nest_and_cover_the_stack():
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        observability=True))
    system.start()
    system.create("/a")

    def client():
        yield system.write("/a", 0, mib(1))
        yield system.read("/a", 0, mib(1))

    sim.process(client())
    sim.run(until=30.0)
    doc = json.loads(system.obs.tracer.to_json())
    names = {e["name"] for e in doc["traceEvents"]}
    # The request is followed across the layers the paper's Fig. 1 stacks.
    assert {"client.write", "client.read", "cache.write", "cache.read",
            "blade.cpu"} <= names
    tracer = system.obs.tracer
    assert not tracer.nesting_violations()
    for span in tracer.spans:
        assert span.end is not None and span.begin <= span.end
    # client spans parent the per-block cache spans on the same track.
    cache_spans = [s for s in tracer.spans if s.name.startswith("cache.")]
    assert cache_spans
    assert all(s.parent is not None and s.parent.name.startswith("client.")
               for s in cache_spans
               if s.name in ("cache.read", "cache.write"))


def test_observability_off_by_default_keeps_sim_clean():
    sim = Simulator()
    NetStorageSystem(sim, SystemConfig(blade_count=2, disk_count=8,
                                       disk_capacity=mib(64)))
    assert sim.obs is None


def test_enable_helper_attaches_to_sim():
    sim = Simulator()
    obs = enable(sim, tracing=True, min_severity=Severity.WARNING)
    assert sim.obs is obs
    assert obs.log.min_severity == Severity.WARNING
