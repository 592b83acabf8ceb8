"""Unit tests for the DES kernel: events, processes, run loop."""

import pytest

from repro.sim import (
    FAULT_EXCEPTIONS,
    ConditionError,
    Interrupt,
    SimulatedFault,
    SimulationError,
    Simulator,
    TransientIOError,
)
from repro.sim.faults import CorruptionError, find_corruption


def test_empty_run_terminates_immediately():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 2.5
    assert sim.now == 2.5


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.process(proc())
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(3.0, "c"))
    sim.process(proc(1.0, "a"))
    sim.process(proc(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    fired = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.process(proc())
    sim.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_past_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)

    sim.process(proc())
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    orphan = sim.event()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run(until=orphan)


def test_process_waits_on_manual_event():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(4.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(4.0, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    p = sim.process(parent())
    sim.run()
    assert p.value == (2.0, "done")


def test_all_of_barrier():
    sim = Simulator()

    def parent():
        evs = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        results = yield sim.all_of(evs)
        return (sim.now, sorted(results.values()))

    p = sim.process(parent())
    sim.run()
    assert p.value == (3.0, [1.0, 2.0, 3.0])


def test_any_of_race():
    sim = Simulator()

    def parent():
        slow = sim.timeout(5.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        results = yield sim.any_of([slow, fast])
        return (sim.now, list(results.values()))

    p = sim.process(parent())
    sim.run()
    assert p.value == (1.0, ["fast"])


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def parent():
        yield sim.all_of([])
        return sim.now

    p = sim.process(parent())
    sim.run()
    assert p.value == 0.0


def test_all_of_propagates_failure():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def parent():
        try:
            yield sim.all_of([sim.timeout(5.0), bad])
        except ConditionError:
            caught.append(sim.now)

    def failer():
        yield sim.timeout(1.0)
        bad.fail(RuntimeError("nope"))

    sim.process(parent())
    sim.process(failer())
    sim.run()
    assert caught == [1.0]


def _barrier_error(child_exc, nested):
    """What a waiter catches when ``child_exc`` fails one child of an
    ``all_of`` (raced inside an ``any_of`` when ``nested``)."""
    sim = Simulator()
    bad = sim.event()
    barrier = sim.all_of([sim.timeout(5.0), bad])
    if nested:
        barrier = sim.any_of([barrier, sim.timeout(9.0)])
    caught = []

    def parent():
        try:
            yield barrier
        except ConditionError as exc:
            caught.append(exc)

    def failer():
        yield sim.timeout(1.0)
        bad.fail(child_exc)

    sim.process(parent())
    sim.process(failer())
    sim.run()
    assert len(caught) == 1
    return caught[0]


@pytest.mark.parametrize("child_exc, nested, fault", [
    pytest.param(TransientIOError("glitch"), False, True, id="fault-child"),
    pytest.param(TypeError("model bug"), False, False, id="bug-child"),
    pytest.param(TransientIOError("glitch"), True, True,
                 id="fault-all-of-in-any-of"),
    pytest.param(TypeError("model bug"), True, False,
                 id="bug-all-of-in-any-of"),
    pytest.param(CorruptionError("disk3", 7, 4096, "bitrot"), False, True,
                 id="corruption-child"),
])
def test_barrier_classifies_failed_child(child_exc, nested, fault):
    """A barrier over a fault is a fault that recovery code catches; a
    barrier over a bug is not, so the bug crashes the run."""
    exc = _barrier_error(child_exc, nested)
    assert isinstance(exc, SimulatedFault) is fault
    assert isinstance(exc, FAULT_EXCEPTIONS) is fault
    expected = child_exc if isinstance(child_exc, CorruptionError) else None
    assert find_corruption(exc) is expected


def test_interrupt_delivered_as_exception():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(victim_proc):
        yield sim.timeout(3.0)
        victim_proc.interrupt("failure-injection")

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    assert log == [(3.0, "failure-injection")]


def test_interrupt_then_process_continues():
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        return sim.now

    def attacker(victim_proc):
        yield sim.timeout(2.0)
        victim_proc.interrupt()

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    assert v.value == 3.0


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_wait_detaches_from_event():
    """After an interrupt, the original event must not re-resume the process."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.timeout(20.0)
        log.append(("resumed", sim.now))

    def attacker(victim_proc):
        yield sim.timeout(5.0)
        victim_proc.interrupt()

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    # If detach failed, the t=10 timeout would wake the process early.
    assert log == [("interrupted", 5.0), ("resumed", 25.0)]


def test_process_crash_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("model bug")

    def parent():
        try:
            yield sim.process(crasher())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["model bug"]


def test_unwatched_process_crash_raises_out_of_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("unhandled model bug")

    sim.process(crasher())
    with pytest.raises(ValueError):
        sim.run()


def test_process_yielding_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")

    def proc():
        yield sim.timeout(7.0)

    sim.process(proc())
    # Process start event is scheduled at t=0.
    assert sim.peek() == 0.0
    sim.step()
    assert sim.peek() == 7.0


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="no events queued"):
        sim.step()


def test_step_on_drained_queue_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.step()
    with pytest.raises(SimulationError, match="no events queued"):
        sim.step()


def test_run_until_past_last_event_lands_on_horizon():
    sim = Simulator()
    fired = []
    sim.timeout(2.0).add_callback(lambda ev: fired.append(sim.now))
    sim.run(until=10.0)  # horizon far beyond the last queued event
    assert fired == [2.0]
    assert sim.now == 10.0
    assert sim.peek() == float("inf")


def test_run_until_time_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=4.5)  # nothing queued at all
    assert sim.now == 4.5
    sim.run(until=4.5)  # same-instant rerun is a no-op, not an error
    assert sim.now == 4.5
