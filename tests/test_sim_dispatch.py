"""The kernel's one dispatch loop, checked against itself.

``run()``, ``run(until=<float>)``, ``run(until=<Event>)`` and ``step()``
all advance time through the same loop, with or without a profiler
attached.  The oracle here is differential: one traced system driven each
of those ways must end in the same state — a byte-identical trace with
observability on, the same clock and event count with it off.  The edge
cases pin the loop's exits: a queue
that runs dry under an event bound, ``step()`` on an empty queue, and the
event counter when a callback raises.
"""

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.sim import SimulationError
from repro.sim.units import mib

HORIZON = 30.0


def _step_to_horizon(sim, stop):
    while sim.peek() <= HORIZON:
        sim.step()


def _run_until_float(sim, stop):
    sim.run(until=HORIZON)


def _run_until_event(sim, stop):
    sim.run(until=stop)
    assert sim.now == HORIZON


def _run_profiled(sim, stop):
    prof = sim.attach_profiler(depth_every=1)
    sim.run(until=HORIZON)
    assert prof.events_seen == sim.events_processed
    assert prof.depth_stats()["max"] > 0


DRIVERS = {
    "step": _step_to_horizon,
    "until_float": _run_until_float,
    "until_event": _run_until_event,
    "profiled": _run_profiled,
}


def _system_trace(drive, obs: bool, seed: int = 11) -> str:
    sim = Simulator()
    # Every driver gets the same stop event, so the event streams match.
    stop = sim.timeout(HORIZON)
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        seed=seed, observability=obs))
    system.start()
    system.create("/projects/results.h5")
    system.create("/scratch/tmp")

    def client():
        yield system.write("/projects/results.h5", 0, mib(2))
        yield system.read("/projects/results.h5", 0, mib(2))
        yield system.write("/scratch/tmp", 0, mib(1))
        yield system.read("/scratch/tmp", 0, mib(1))

    def heartbeat():
        # Keeps events queued past the horizon, so a driver that fails
        # to stop there shows up in the trace.
        for _ in range(100):
            yield sim.timeout(0.7)

    sim.process(client())
    sim.process(heartbeat())
    drive(sim, stop)
    # Drain whatever else is due at the horizon and land the clock on it;
    # a no-op for the drivers that already ran to the horizon.
    sim.run(until=HORIZON)
    if not obs:
        return f"{sim.now}:{sim.events_processed}"
    return system.obs.tracer.to_json()


@pytest.mark.parametrize("obs", [True, False])
def test_dispatch_paths_byte_identical(obs):
    traces = {name: _system_trace(drive, obs)
              for name, drive in DRIVERS.items()}
    assert len(set(traces.values())) == 1, sorted(traces)
    assert traces["step"]  # a real trace, not an empty run


def test_step_dispatches_exactly_one_event_per_call():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.call_at(1.0, lambda i=i: fired.append(i))
    sim.step()
    assert fired == [0] and sim.events_processed == 1
    sim.step()
    assert fired == [0, 1] and sim.events_processed == 2


def test_run_until_event_on_dry_queue_raises():
    sim = Simulator()
    never = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=never)
    assert sim.now == 1.0
    assert sim.events_processed == 1


def test_run_until_event_with_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=sim.event())
    assert sim.events_processed == 0


def test_step_on_empty_queue_raises_after_run():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError, match="no events queued"):
        sim.step()
    assert sim.events_processed == 1


@pytest.mark.parametrize("mode", ["run", "until_float", "until_event",
                                  "step", "profiled"])
def test_events_processed_exact_when_callback_raises(mode):
    sim = Simulator()
    if mode == "profiled":
        prof = sim.attach_profiler()
    stop = sim.event()

    def boom():
        raise RuntimeError("model bug")

    sim.call_in(1.0, lambda: None)
    sim.call_in(2.0, boom)
    sim.call_in(3.0, lambda: None)
    with pytest.raises(RuntimeError, match="model bug"):
        if mode in ("run", "profiled"):
            sim.run()
        elif mode == "until_float":
            sim.run(until=10.0)
        elif mode == "until_event":
            sim.run(until=stop)
        else:
            while True:
                sim.step()
    # The raising event counts as processed, the one after it does not.
    assert sim.events_processed == 2
    assert sim.now == 2.0
    if mode == "profiled":
        assert prof.events_seen == 2
    sim.run()
    assert sim.events_processed == 3
