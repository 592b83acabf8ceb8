"""Fast-path invariants: pooling and deferred calls must be invisible.

The kernel hot paths introduced for throughput — Timeout pooling, the
``call_in``/``call_at`` deferred-call channel, and the virtual-time
fair-share link — are performance plumbing only.  The contract here is
that none of them perturbs simulation semantics: the same seed produces a
byte-identical trace with pooling on (the default) and off (the
``Simulator(pooling=False)`` escape hatch), and deferred calls obey the
same time/FIFO ordering as event callbacks.
"""

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.sim import SimulationError
from repro.sim.units import mib


def _system_trace(pooling: bool, seed: int = 11) -> str:
    """Quickstart-sized traced workload; returns the trace JSON."""
    sim = Simulator(pooling=pooling)
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
    return system.trace_json()


def test_pooling_on_off_traces_byte_identical():
    # The tentpole determinism bar: object reuse must not change any event
    # ordering, timing, or payload visible in the trace.
    assert _system_trace(pooling=True) == _system_trace(pooling=False)


def test_pooled_timeout_objects_are_reused():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield sim.timeout(0.1)

    sim.process(proc())
    sim.run()
    assert sim._free_timeouts, "fired timeouts should land in the pool"
    recycled = sim._free_timeouts[-1]
    fresh = sim.timeout(1.0)
    assert fresh is recycled  # reuse, not reallocation
    assert not fresh.processed and fresh.delay == 1.0


def test_pooling_disabled_keeps_pool_empty():
    sim = Simulator(pooling=False)

    def proc():
        for _ in range(10):
            yield sim.timeout(0.1)

    sim.process(proc())
    sim.run()
    assert sim._free_timeouts == []


def test_pooled_timeout_readable_right_after_firing():
    # A timeout's value/processed must stay readable in the same event in
    # which it fired (recycling happens only after its callbacks ran).
    sim = Simulator()
    seen = []
    t = sim.timeout(1.0, value="payload")
    t.add_callback(lambda ev: seen.append((ev.processed, ev.value)))
    sim.run()
    assert seen == [(True, "payload")]


def test_allof_values_survive_child_timeout_recycling():
    # Regression: a fired AllOf child was recycled into the pool, re-armed
    # by an unrelated sim.timeout() before the barrier completed, and its
    # value vanished from the collected dict.  Values must be snapshotted
    # at child-fire time, not re-read at collect time.
    sim = Simulator()
    t1 = sim.timeout(1.0, "x")
    t2 = sim.timeout(2.0, "y")
    barrier = sim.all_of([t1, t2])
    stray = []
    # Between the children's firings, an unrelated allocation reuses t1's
    # pooled object and resets its state.
    sim.call_at(1.2, lambda: stray.append(sim.timeout(5.0, "stray")))
    got = []
    barrier.add_callback(lambda ev: got.append(dict(ev.value)))
    sim.run()
    assert stray[0] is t1  # the child really was recycled and re-armed
    assert got == [{t1: "x", t2: "y"}]


def test_anyof_value_survives_child_timeout_recycling():
    sim = Simulator()
    t1 = sim.timeout(1.0, "first")
    race = sim.any_of([t1, sim.timeout(3.0, "late")])
    sim.call_at(1.5, lambda: sim.timeout(5.0, "stray"))
    got = []
    race.add_callback(lambda ev: got.append(list(ev.value.values())))
    sim.run()
    assert got == [["first"]]


def test_condition_values_identical_pooling_on_off():
    def collect(pooling):
        sim = Simulator(pooling=pooling)
        t1 = sim.timeout(1.0, "x")
        t2 = sim.timeout(2.0, "y")
        barrier = sim.all_of([t1, t2])
        sim.call_at(1.2, lambda: sim.timeout(5.0))
        got = []
        barrier.add_callback(lambda ev: got.append(sorted(ev.value.values())))
        sim.run()
        return got

    assert collect(True) == collect(False) == [["x", "y"]]


def test_finished_process_drops_target_reference():
    # A finished process must not pin its last awaited event — under
    # pooling that object may already be living its next life.
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p._target is None


def test_deferred_calls_interleave_fifo_with_events():
    sim = Simulator()
    order = []
    sim.call_in(1.0, lambda: order.append("a"))
    sim.timeout(1.0).add_callback(lambda ev: order.append("b"))
    sim.call_in(1.0, lambda: order.append("c"))
    sim.call_at(0.5, lambda: order.append("early"))
    sim.run()
    assert order == ["early", "a", "b", "c"]


def test_deferred_calls_advance_clock_and_count_events():
    sim = Simulator()
    at = []
    sim.call_in(2.5, lambda: at.append(sim.now))
    sim.run()
    assert at == [2.5]
    assert sim.now == 2.5
    assert sim.events_processed == 1


def test_call_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.001, lambda: None)


def test_call_at_past_rejected():
    sim = Simulator()
    sim.call_in(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)
