"""Fast-path invariants: deferred calls and fired timeouts.

The kernel hot paths introduced for throughput — the ``call_in``/
``call_at`` deferred-call channel and the virtual-time fair-share link —
are performance plumbing only: deferred calls obey the same time/FIFO
ordering as event callbacks.  A :class:`~repro.sim.events.Timeout` is an
ordinary event: once fired it keeps its state, so it can be held and
waited on like any other, and barriers over timeouts keep their values.
"""

import pytest

from repro import Simulator
from repro.sim import SimulationError


def test_pooled_timeout_readable_right_after_firing():
    # A timeout's value/processed are readable from its own callbacks.
    sim = Simulator()
    seen = []
    t = sim.timeout(1.0, value="payload")
    t.add_callback(lambda ev: seen.append((ev.processed, ev.value)))
    sim.run()
    assert seen == [(True, "payload")]


def test_fired_timeout_keeps_its_state_across_later_events():
    # A fired Timeout is an ordinary processed event: later events,
    # including an unrelated sim.timeout(), leave it as it was, and a
    # callback added after it fired runs at once.
    sim = Simulator()
    t = sim.timeout(1.0, value="payload")
    sim.run()
    sim.timeout(2.0, value="other")
    sim.call_in(0.5, lambda: sim.timeout(0.1))
    sim.run()
    assert t.processed and t.value == "payload"
    seen = []
    t.add_callback(lambda ev: seen.append((ev.processed, ev.value)))
    assert seen == [(True, "payload")]


def test_allof_values_survive_child_timeout_recycling():
    # A barrier collects its children's values when it completes: a child
    # that fired before an unrelated sim.timeout() was created still
    # reports its own value.
    sim = Simulator()
    t1 = sim.timeout(1.0, "x")
    t2 = sim.timeout(2.0, "y")
    barrier = sim.all_of([t1, t2])
    sim.call_at(1.2, lambda: sim.timeout(5.0, "stray"))
    got = []
    barrier.add_callback(lambda ev: got.append(dict(ev.value)))
    sim.run()
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
    # The name dates from the Timeout free list, whose reuse of fired
    # timeouts once cost barriers their values.  The same pressure today is
    # an unrelated sim.timeout() created between the children's firings:
    # the collected values are identical with it and without it.
    def collect(stray):
        sim = Simulator()
        t1 = sim.timeout(1.0, "x")
        t2 = sim.timeout(2.0, "y")
        barrier = sim.all_of([t1, t2])
        if stray:
            sim.call_at(1.2, lambda: sim.timeout(5.0))
        got = []
        barrier.add_callback(lambda ev: got.append(sorted(ev.value.values())))
        sim.run()
        return got

    assert collect(True) == collect(False) == [["x", "y"]]


def test_finished_process_drops_target_reference():
    # A finished process must not pin its last awaited event.
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
