"""RetryPolicy / retry_call: backoff shape, budgets, and fault filtering."""

import pytest

from repro.faults import NO_RETRY, RetryExhausted, RetryPolicy, retry_call
from repro.sim import RngStreams, Simulator
from repro.sim.faults import TransientIOError, is_fault


def _failing_op(sim, log, fail_times, value="ok"):
    """An op that fails with TransientIOError ``fail_times`` times."""
    def op():
        ev = sim.event()
        log.append(sim.now)
        if len(log) <= fail_times:
            ev.fail(TransientIOError(f"glitch {len(log)}"))
        else:
            ev.succeed(value)
        return ev
    return op


class TestPolicy:
    def test_backoff_is_capped_exponential(self):
        p = RetryPolicy(attempts=6, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5, jitter=0.0)
        assert [p.backoff(i) for i in range(1, 6)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_backoff_deterministic_under_fixed_seed(self):
        p = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.5)
        a = [p.backoff(i, RngStreams(9).stream("retry"))
             for i in range(1, 4)]
        b = [p.backoff(i, RngStreams(9).stream("retry"))
             for i in range(1, 4)]
        assert a == b
        # Jitter inflates, never shrinks, and stays within the bound.
        for i, delay in enumerate(a, start=1):
            base = RetryPolicy(attempts=4, base_delay=0.1).backoff(i)
            assert base <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetryCall:
    def test_succeeds_after_transient_failures(self):
        sim = Simulator()
        log = []
        op = _failing_op(sim, log, fail_times=2)
        policy = RetryPolicy(attempts=4, base_delay=0.25, multiplier=2.0)
        done = sim.process(retry_call(sim, op, policy))
        assert sim.run(until=done) == "ok"
        assert len(log) == 3
        # Attempts spaced by the deterministic backoff: 0, 0.25, 0.75.
        assert log == [0.0, 0.25, 0.75]

    def test_exhaustion_surfaces_last_underlying_error(self):
        sim = Simulator()
        log = []
        op = _failing_op(sim, log, fail_times=99)
        done = sim.process(retry_call(
            sim, op, RetryPolicy(attempts=3, base_delay=0.01)))
        with pytest.raises(RetryExhausted) as info:
            sim.run(until=done)
        exc = info.value
        assert exc.attempts == 3
        # The error that mattered — the final attempt's — not a generic
        # "gave up", and chained for tracebacks/classification.
        assert "glitch 3" in str(exc.last_error)
        assert exc.__cause__ is exc.last_error
        assert is_fault(exc)

    def test_non_fault_errors_never_retried(self):
        sim = Simulator()
        calls = []

        def op():
            ev = sim.event()
            calls.append(1)
            ev.fail(TypeError("model bug"))
            return ev

        done = sim.process(retry_call(
            sim, op, RetryPolicy(attempts=5, base_delay=0.01)))
        with pytest.raises(TypeError):
            sim.run(until=done)
        assert len(calls) == 1  # no second attempt for a programming error

    def test_deadline_bounds_simulated_time(self):
        sim = Simulator()
        log = []
        op = _failing_op(sim, log, fail_times=99)
        policy = RetryPolicy(attempts=50, base_delay=1.0, multiplier=1.0,
                             deadline=2.5)
        done = sim.process(retry_call(sim, op, policy))
        with pytest.raises(RetryExhausted):
            sim.run(until=done)
        # Attempts at t=0, 1, 2; the retry that would start at t=3 is
        # past the 2.5 s deadline and is never made.
        assert log == [0.0, 1.0, 2.0]

    def test_no_retry_passthrough_preserves_exception_type(self):
        sim = Simulator()
        log = []
        op = _failing_op(sim, log, fail_times=1)
        done = sim.process(retry_call(sim, op, NO_RETRY))
        # Single-attempt policy: the original fault, NOT RetryExhausted.
        with pytest.raises(TransientIOError):
            sim.run(until=done)
        assert len(log) == 1

    def test_usable_as_process_fragment(self):
        sim = Simulator()
        log = []
        op = _failing_op(sim, log, fail_times=1, value=42)
        results = []

        def proc():
            value = yield from retry_call(
                sim, op, RetryPolicy(attempts=2, base_delay=0.5))
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == [42]
        assert sim.now == 0.5
