"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.sim import RngStreams, Simulator, TransientIOError
from repro.workloads import (
    HotspotWorkload,
    SequentialStream,
    ZipfKeyGenerator,
    aggregate_throughput,
    multi_site_trace,
    run_client_fleet,
    tenant_growth_traces,
)


class TestSequentialStream:
    def test_issues_all_blocks_in_order(self):
        sim = Simulator()
        seen = []

        def issue(block):
            seen.append(block)
            return sim.timeout(0.001)

        stream = SequentialStream(sim, issue, blocks=10, block_size=4096,
                                  window=1)
        stream.run()
        sim.run()
        assert seen == list(range(10))
        assert stream.completed == 10
        assert stream.throughput() > 0

    def test_window_bounds_concurrency(self):
        sim = Simulator()
        inflight = {"now": 0, "max": 0}

        def issue(block):
            inflight["now"] += 1
            inflight["max"] = max(inflight["max"], inflight["now"])
            ev = sim.timeout(0.01)

            def dec(_e):
                inflight["now"] -= 1
            ev.add_callback(dec)
            return ev

        SequentialStream(sim, issue, blocks=20, block_size=1, window=4).run()
        sim.run()
        assert inflight["max"] == 4

    def test_latency_recorded(self):
        sim = Simulator()
        stream = SequentialStream(sim, lambda b: sim.timeout(0.005),
                                  blocks=5, block_size=1)
        stream.run()
        sim.run()
        assert stream.latency.mean() == pytest.approx(0.005)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SequentialStream(sim, lambda b: sim.timeout(0), blocks=0,
                             block_size=1)

    def test_fleet_and_aggregate(self):
        sim = Simulator()
        streams = run_client_fleet(
            sim, count=4,
            make_issue=lambda i: (lambda b: sim.timeout(0.002)),
            blocks_per_client=10, block_size=1000)
        sim.run()
        assert len(streams) == 4
        assert aggregate_throughput(streams) > 0
        assert aggregate_throughput([]) == 0.0


class TestZipf:
    def test_skew_concentrates_head(self):
        rng = RngStreams(1).fresh("zipf")
        gen = ZipfKeyGenerator(1000, skew=1.2, rng=rng)
        draws = gen.draw_many(5000)
        head = sum(1 for k in draws if k[1] < 10)
        assert head > len(draws) * 0.3  # top-1% of keys > 30% of traffic

    def test_zero_skew_is_uniform(self):
        rng = RngStreams(1).fresh("zipf0")
        gen = ZipfKeyGenerator(100, skew=0.0, rng=rng)
        draws = gen.draw_many(10_000)
        head = sum(1 for k in draws if k[1] < 10)
        assert abs(head / len(draws) - 0.1) < 0.03

    def test_custom_key_mapping(self):
        rng = RngStreams(1).fresh("z")
        gen = ZipfKeyGenerator(10, 1.0, rng, key_of=lambda i: f"f{i}")
        assert all(isinstance(k, str) for k in gen.draw_many(5))

    def test_validation(self):
        rng = RngStreams(1).fresh("z")
        with pytest.raises(ValueError):
            ZipfKeyGenerator(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfKeyGenerator(10, -1.0, rng)


class TestHotspotWorkload:
    def test_open_loop_traffic(self):
        sim = Simulator()
        rng = RngStreams(2).fresh("arrivals")
        gen = ZipfKeyGenerator(100, 1.0, RngStreams(2).fresh("keys"))
        wl = HotspotWorkload(sim, gen, lambda k: sim.timeout(0.001),
                             arrival_rate=500.0, duration=1.0, rng=rng)
        wl.run()
        sim.run()
        assert 300 < wl.issued < 800
        assert wl.completed == wl.issued
        assert wl.failures == 0

    def test_failures_counted(self):
        sim = Simulator()
        rng = RngStreams(2).fresh("a2")
        gen = ZipfKeyGenerator(10, 1.0, RngStreams(2).fresh("k2"))

        def issue(key):
            ev = sim.event()
            ev.fail(TransientIOError("down"))
            return ev

        wl = HotspotWorkload(sim, gen, issue, arrival_rate=100.0,
                             duration=0.2, rng=rng)
        wl.run()
        sim.run()
        assert wl.failures == wl.issued > 0

    def test_bug_crashes_instead_of_counting_a_failure(self):
        sim = Simulator()
        rng = RngStreams(2).fresh("a3")
        gen = ZipfKeyGenerator(10, 1.0, RngStreams(2).fresh("k3"))

        def issue(key):
            ev = sim.event()
            ev.fail(TypeError("model bug"))
            return ev

        wl = HotspotWorkload(sim, gen, issue, arrival_rate=100.0,
                             duration=0.2, rng=rng)
        wl.run()
        with pytest.raises(TypeError, match="model bug"):
            sim.run()
        assert wl.failures == 0

    def test_validation(self):
        sim = Simulator()
        rng = RngStreams(1).fresh("x")
        gen = ZipfKeyGenerator(10, 1.0, rng)
        with pytest.raises(ValueError):
            HotspotWorkload(sim, gen, lambda k: sim.timeout(0),
                            arrival_rate=0, duration=1, rng=rng)


class TestTraces:
    def test_tenant_growth_is_monotone_ish(self):
        rng = RngStreams(3).fresh("growth")
        traces = tenant_growth_traces(5, 24, rng)
        assert len(traces) == 5
        for series in traces.values():
            assert len(series) == 24
            assert series[-1] > series[0]  # growth dominates

    def test_growth_deterministic_per_seed(self):
        a = tenant_growth_traces(3, 10, RngStreams(7).fresh("g"))
        b = tenant_growth_traces(3, 10, RngStreams(7).fresh("g"))
        assert a == b

    def test_multi_site_trace_locality(self):
        rng = RngStreams(4).fresh("trace")
        trace = multi_site_trace(["a", "b", "c"], files=20,
                                 blocks_per_file=64, accesses=2000,
                                 rng=rng, locality=0.9)
        assert len(trace) == 2000
        times = [r.time for r in trace]
        assert times == sorted(times)
        assert all(0 <= r.block < 64 for r in trace)
        sites = {r.site for r in trace}
        assert sites <= {"a", "b", "c"}

    def test_trace_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            multi_site_trace(["a"], 5, 10, 10, rng)
        with pytest.raises(ValueError):
            multi_site_trace(["a", "b"], 5, 10, 10, rng, locality=1.5)
        with pytest.raises(ValueError):
            tenant_growth_traces(0, 5, rng)
