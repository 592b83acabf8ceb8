"""Fluid aggregated workloads: conservation, determinism, fault response.

A :class:`~repro.workloads.aggregate.FluidStream` compresses 10⁵–10⁷
clients into rate flows.  The contracts tested here:

* **conservation** — fluid ops are neither created nor destroyed:
  offered = admitted + backlog, admitted = hits + transfer completions +
  failures + in-flight (to float tolerance);
* **event economy** — kernel events scale with pulses, never with the
  modeled population;
* **determinism** — the same spec + seed reproduces identical summaries
  and scenario fingerprints, on both scheduler backends, including under
  a FaultPlan site-loss campaign striking mid-stream;
* **fault response** — an open-loop population keeps offering load
  through an outage: ops fail while the site is down and complete again
  after repair.
"""

import pytest

from repro.plan import (
    MatrixSpec,
    ScenarioSpec,
    SiteSpec,
    SpecError,
    WorkloadSpec,
    plan_storage,
    run_scenario,
)
from repro.sim import Simulator
from repro.workloads import FluidStream

OPS_TOL = 1e-6


def _sink_via(sim, latency):
    """A sink completing every transfer after a fixed latency."""
    def sink(nbytes):
        return sim.timeout(latency, value=nbytes)
    return sink


def _conservation(stream):
    assert stream.ops_offered == pytest.approx(
        stream.ops_admitted + stream.backlog_ops, abs=OPS_TOL)
    assert stream.ops_admitted == pytest.approx(
        stream.ops_completed + stream.ops_failed + stream.ops_inflight,
        abs=OPS_TOL)


# ---------------------------------------------------------------------------
# FluidStream unit behavior
# ---------------------------------------------------------------------------


def test_fluid_conservation_and_rates():
    sim = Simulator()
    stream = FluidStream(
        sim, clients=100_000, ops_per_client_s=0.1, op_bytes=4096,
        read_sink=_sink_via(sim, 0.002), write_sink=_sink_via(sim, 0.005),
        read_fraction=0.7, hit_ratio=0.9, pulse_s=1.0)
    stream.start(until=50.0)
    sim.run(until=100.0)  # run past the horizon so transfers drain
    # Unthrottled: everything offered is admitted, nothing backlogs.
    assert stream.ops_offered == pytest.approx(100_000 * 0.1 * 50.0)
    assert stream.backlog_ops == 0.0
    assert stream.ops_failed == 0.0
    assert stream.ops_inflight == pytest.approx(0.0, abs=OPS_TOL)
    _conservation(stream)
    # Hit share: 70% reads × 90% hit ratio of every admitted op.
    assert stream.ops_hit == pytest.approx(stream.ops_admitted * 0.63)
    assert stream.transfer_latency.count == stream.transfers_issued
    assert stream.pulses == 50


def test_fluid_event_economy_is_population_independent():
    # The whole point: 1000× the clients, identical kernel event count.
    def events_for(clients):
        sim = Simulator()
        FluidStream(
            sim, clients=clients, ops_per_client_s=0.05, op_bytes=4096,
            read_sink=_sink_via(sim, 0.002),
            write_sink=_sink_via(sim, 0.005)).start(until=120.0)
        sim.run()
        return sim.events_processed

    assert events_for(10_000_000) == events_for(10_000)


def test_fluid_admission_token_bucket_throttles_and_drains():
    sim = Simulator()
    stream = FluidStream(
        sim, clients=1_000_000, ops_per_client_s=0.01, op_bytes=512,
        read_sink=_sink_via(sim, 0.001), write_sink=_sink_via(sim, 0.001),
        pulse_s=1.0, admit_ops_s=4_000.0, admit_burst_s=1.0)
    stream.start(until=30.0)
    sim.run(until=60.0)
    # Offered 10k ops/s against a 4k ops/s portal: backlog accumulates
    # at ~6k ops/s and the admitted volume tracks the bucket rate.
    assert stream.backlog_ops > 100_000
    assert stream.ops_admitted <= 4_000.0 * 30.0 + 4_000.0 + OPS_TOL
    assert stream.mean_queue_delay_s() > 1.0
    _conservation(stream)


def test_fluid_failed_sink_counts_ops_failed():
    sim = Simulator()

    def failing(nbytes):
        from repro.sim import Event
        from repro.sim.faults import TransientIOError
        bad = Event(sim)
        bad.fail(TransientIOError("store down"))
        return bad

    stream = FluidStream(
        sim, clients=50_000, ops_per_client_s=0.02, op_bytes=4096,
        read_sink=failing, write_sink=failing, hit_ratio=0.0)
    stream.start(until=10.0)
    sim.run(until=20.0)
    assert stream.ops_failed > 0
    assert stream.transfers_failed == stream.transfers_issued
    # Hits are zero (hit_ratio=0), so nothing completed.
    assert stream.ops_completed == 0.0
    _conservation(stream)


def test_fluid_parameter_validation():
    sim = Simulator()
    sink = _sink_via(sim, 0.001)
    base = dict(clients=10, ops_per_client_s=1.0, op_bytes=64,
                read_sink=sink, write_sink=sink)
    for bad in (dict(clients=-1), dict(op_bytes=0),
                dict(read_fraction=1.5), dict(hit_ratio=-0.1),
                dict(pulse_s=0.0), dict(admit_ops_s=0.0),
                dict(arrival_cv=-1.0)):
        with pytest.raises(ValueError):
            FluidStream(sim, **{**base, **bad})
    stream = FluidStream(sim, **base)
    stream.start(until=1.0)
    with pytest.raises(RuntimeError, match="already started"):
        stream.start(until=2.0)


# ---------------------------------------------------------------------------
# Declared-scenario integration (plan family)
# ---------------------------------------------------------------------------


def _fluid_spec(**overrides):
    faults = overrides.pop("faults", None)
    wl = WorkloadSpec(kind="fluid", clients=1_000_000,
                      ops_per_client_s=0.01, op_bytes=4096,
                      admit_ops_s=8_000.0, geo_mode="none",
                      **overrides.pop("workload", {}))
    return ScenarioSpec(name="fluid-test", seed=42, horizon_s=60.0,
                        sites=(SiteSpec("solo"),), workload=wl,
                        site_backing="aggregate", faults=faults,
                        **overrides)


def test_fluid_requires_aggregate_backing():
    spec = ScenarioSpec(workload=WorkloadSpec(kind="fluid"),
                        site_backing="system")
    with pytest.raises(SpecError, match="aggregate"):
        plan_storage(spec)


def test_single_site_aggregate_allowed_only_for_fluid():
    # Fluid unlocks the single-site wan topology...
    assert plan_storage(_fluid_spec()).kind == "wan"
    # ...while closed-loop single-site aggregate stays rejected.
    with pytest.raises(SpecError, match="single-site"):
        plan_storage(ScenarioSpec(site_backing="aggregate"))


def test_fluid_workload_spec_round_trips():
    wl = WorkloadSpec(kind="fluid", clients=2_000_000, hit_ratio=0.85,
                      pulse_s=0.5, admit_ops_s=1e4)
    assert WorkloadSpec.from_dict(wl.as_dict()) == wl
    spec = _fluid_spec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_fluid_scenario_deterministic_same_spec_and_seed():
    r1 = run_scenario(_fluid_spec())
    r2 = run_scenario(_fluid_spec())
    assert r1.fingerprint == r2.fingerprint
    assert r1.ok > 400_000  # ~8k ops/s admitted over 60s, minus in-flight
    # A different seed perturbs the demand noise, hence the outcome.
    changed = run_scenario(ScenarioSpec(name="fluid-test", seed=43,
                                        horizon_s=60.0,
                                        sites=(SiteSpec("solo"),),
                                        workload=_fluid_spec().workload,
                                        site_backing="aggregate"))
    assert changed.metrics["solo.fluid.ops_offered"] != \
        r1.metrics["solo.fluid.ops_offered"]


def test_fluid_site_loss_campaign_mid_stream():
    faults = {"seed": 1, "faults": [
        {"at": 20.0, "kind": "site_loss", "target": "solo",
         "duration": 15.0}]}
    down = run_scenario(_fluid_spec(faults=faults))
    clean = run_scenario(_fluid_spec())
    # The outage window fails transfers; the open-loop stream keeps
    # pulsing and completes again after repair.
    assert down.failed > 0
    assert down.ok > 0
    assert down.ok < clean.ok
    # Deterministic under the campaign too.
    again = run_scenario(_fluid_spec(faults=faults))
    assert again.fingerprint == down.fingerprint


def test_fluid_fields_are_matrix_axes():
    matrix = MatrixSpec(_fluid_spec(),
                        sweep={"hit_ratio": [0.5, 0.95],
                               "admit_ops_s": [5_000.0, 50_000.0]})
    cells = matrix.expand()
    assert len(cells) == 4
    results = [run_scenario(c) for c in cells]
    # More cache hits → less backing-store read traffic.
    by_cell = {(c.workload.hit_ratio, c.workload.admit_ops_s):
               r.metrics["solo.fluid.bytes_read"]
               for c, r in zip(cells, results)}
    assert by_cell[(0.95, 50_000.0)] < by_cell[(0.5, 50_000.0)]
