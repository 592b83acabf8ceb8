"""Kernel microbenchmarks: how fast the substrate itself runs.

Not a paper experiment — these measure the simulator's own event
throughput so regressions in the DES kernel (which every experiment sits
on) are visible.  Two harnesses share this file:

* pytest-benchmark tests (collected with the tier-1 suite) giving
  multi-round statistics for local comparison;
* a standalone regression harness (``python benchmarks/
  bench_kernel_microbench.py``) that writes ``BENCH_kernel.json`` —
  events/sec, wall time and allocation counts per scenario — and can gate
  against a baseline JSON (``--baseline ... --max-regression 0.30``).
  Absolute throughput is machine-dependent, so CI measures its baseline
  in-job (the PR's merge-base on the same runner) rather than gating on
  the committed trajectory record.  See docs/performance.md.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (already importable under pytest / installed)
except ImportError:  # pragma: no cover - script-mode path shim
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cache import BlockCache
from repro.sim import FairShareLink, Resource, Simulator


def test_kernel_event_throughput(benchmark):
    """Schedule-and-dispatch rate for bare timeout events."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(10_000):
                yield sim.timeout(0.001)

        sim.process(ticker())
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 9.0


def test_kernel_resource_contention(benchmark):
    """Acquire/release churn through a contended resource."""

    def run():
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def worker():
            for _ in range(500):
                req = res.request()
                yield req
                yield sim.timeout(0.0001)
                res.release(req)

        for _ in range(8):
            sim.process(worker())
        sim.run()
        return res.in_use

    assert benchmark(run) == 0


def test_kernel_fluid_link_recompute(benchmark):
    """Fair-share recomputation cost under churning flow sets."""

    def run():
        sim = Simulator()
        link = FairShareLink(sim, bandwidth=1e6)

        def client(i):
            yield sim.timeout(i * 0.0001)
            for _ in range(50):
                yield link.transfer(500.0)

        for i in range(16):
            sim.process(client(i))
        sim.run()
        return link.total_bytes

    assert benchmark(run) == 16 * 50 * 500.0


def test_kernel_cache_ops(benchmark):
    """Insert/lookup/evict churn on the priority-LRU block cache."""

    def run():
        cache = BlockCache(1024)
        for i in range(20_000):
            # A hot set that fits interleaved with a scan that doesn't.
            key = ("hot", i % 256) if i % 3 == 0 else ("scan", i % 4096)
            if cache.lookup(key) is None:
                cache.insert(key, priority=i % 3)
        return cache.hits

    assert benchmark(run) > 0


def test_kernel_profiler_ranks_event_types(benchmark):
    """The self-profile is complete and deterministic in its count columns."""
    report = benchmark.pedantic(lambda: profile_kernel(scale=0.1),
                                rounds=1, iterations=1, warmup_rounds=0)
    ranked = report["top_by_count"]
    assert ranked and ranked[0]["category"] == "Timeout"
    counts = [r["count"] for r in ranked]
    assert counts == sorted(counts, reverse=True)
    # Wall attribution exists as a parallel ranking (values machine-local).
    assert len(report["top_by_wall"]) >= 1
    assert report["events_seen"] > 0
    # Identical workload, identical deterministic columns.
    again = profile_kernel(scale=0.1)
    assert again["events_seen"] == report["events_seen"]
    assert [(r["category"], r["count"]) for r in again["top_by_count"]] == \
        [(r["category"], r["count"]) for r in ranked]


def test_kernel_obs_overhead_measurable(benchmark):
    """Smoke the overhead probe (the ratio floor is gated in CI, where
    best-of-N filtering makes the number stable; here we only require a
    sane measurement)."""
    overhead = benchmark.pedantic(
        lambda: measure_obs_overhead(scale=0.1, repeats=1),
        rounds=1, iterations=1, warmup_rounds=0)
    assert overhead["scenario"] == "link_contention"
    assert overhead["obs_off_events_per_sec"] > 0
    assert overhead["obs_on_events_per_sec"] > 0
    assert overhead["ratio"] > 0


# ---------------------------------------------------------------------------
# Standalone regression harness (BENCH_kernel.json)
# ---------------------------------------------------------------------------
# Scenario functions build a workload, run it to completion, and return the
# number of kernel events processed (for the pure-datastructure cache
# scenario: the operation count).  The runner handles timing/allocation
# accounting so every scenario is measured identically.


def _timeout_storm(scale: float) -> int:
    """Many processes yielding bare timeouts: pure schedule-and-dispatch."""
    sim = Simulator()
    n = int(20_000 * scale)

    def ticker():
        for _ in range(n):
            yield sim.timeout(0.001)

    for _ in range(8):
        sim.process(ticker())
    sim.run()
    return sim.events_processed


def _link_contention(scale: float) -> int:
    """Staggered clients churning a fair-share link's active set."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=1e6)
    n = int(150 * scale)

    def client(i):
        yield sim.timeout(i * 0.0001)
        for _ in range(n):
            yield link.transfer(500.0)

    for i in range(32):
        sim.process(client(i))
    sim.run()
    return sim.events_processed


def _resource_contention(scale: float) -> int:
    """Request/release churn through a capacity-2 resource."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    n = int(1_500 * scale)

    def worker():
        for _ in range(n):
            req = res.request()
            yield req
            yield sim.timeout(0.0001)
            res.release(req)

    for _ in range(8):
        sim.process(worker())
    sim.run()
    return sim.events_processed


def _cache_ops(scale: float) -> int:
    """Hot-set + scan churn on the priority-LRU block cache."""
    cache = BlockCache(1024)
    n = int(200_000 * scale)
    for i in range(n):
        key = ("hot", i % 256) if i % 3 == 0 else ("scan", i % 4096)
        if cache.lookup(key) is None:
            cache.insert(key, priority=i % 3)
    return n


def _farm_feed(scale: float) -> int:
    """AggregateFarm reads through the deferred-call fast path (no obs)."""
    from repro.plan import AggregateFarm

    sim = Simulator()
    feed = AggregateFarm(sim, bandwidth=1.2e9, latency=1e-4)
    n = int(2_000 * scale)

    def client(i):
        for j in range(n):
            yield feed.read(("blk", i, j), 65536)

    for i in range(16):
        sim.process(client(i))
    sim.run()
    return sim.events_processed


def _megascale_feed(scale: float) -> int:
    """A fluid megascale site: ~scale×4M clients aggregated into rate
    flows against one aggregate-storage site.  The point on record is
    the event *economy* — kernel events stay O(pulses), not O(clients)."""
    from repro.geo.site import Site
    from repro.workloads.aggregate import FluidStream

    sim = Simulator()
    site = Site(sim, "mega", (0.0, 0.0))
    clients = max(1, int(4_000_000 * scale))
    stream = FluidStream(
        sim, name="mega", clients=clients, ops_per_client_s=0.05,
        op_bytes=4096, read_sink=site.store_read,
        write_sink=site.store_write, pulse_s=0.25,
        admit_ops_s=clients * 0.04)
    stream.start(until=600.0)
    sim.run()
    assert stream.ops_completed > 0
    return sim.events_processed


SCENARIOS = {
    "timeout_storm": _timeout_storm,
    "link_contention": _link_contention,
    "resource_contention": _resource_contention,
    "cache_ops": _cache_ops,
    "farm_feed": _farm_feed,
    "megascale_feed": _megascale_feed,
}


# ---------------------------------------------------------------------------
# Observability overhead + kernel self-profile
# ---------------------------------------------------------------------------
# Two extra harness outputs guard the telemetry pipeline's contract:
# the overhead gate measures the hot-path cost of leaving labeled-series
# emission on (the zero-cost claim, quantified), and the profiler report
# ranks where the kernel itself spends its dispatches and wall time.


def _link_contention_obs(scale: float) -> int:
    """The link-churn scenario with telemetry live: every transfer also
    lands in a labeled ``link.bytes`` series (tracing/events off, so the
    measured delta is the series hot path, not span bookkeeping)."""
    from repro.obs import enable

    sim = Simulator()
    enable(sim, tracing=False, events=False)
    link = FairShareLink(sim, bandwidth=1e6)
    n = int(150 * scale)

    def client(i):
        yield sim.timeout(i * 0.0001)
        for _ in range(n):
            yield link.transfer(500.0)

    for i in range(32):
        sim.process(client(i))
    sim.run()
    return sim.events_processed


def measure_obs_overhead(scale: float = 1.0, repeats: int = 3) -> dict:
    """Best-of-N events/sec with observability off vs on, and the ratio.

    The contract is that instrumentation costs a bounded slice of kernel
    throughput: CI gates ``ratio >= 0.85`` on the link-contention
    scenario, whose per-event work is small enough to make series
    emission *visible* (heavier scenarios would hide it).
    """
    def best(fn):
        rates = [_measure_once(fn, scale)["events_per_sec"]
                 for _ in range(max(1, repeats))]
        return max(rates)

    off = best(_link_contention)
    on = best(_link_contention_obs)
    return {
        "scenario": "link_contention",
        "obs_off_events_per_sec": off,
        "obs_on_events_per_sec": on,
        "ratio": round(on / off, 4) if off else 1.0,
    }


def profile_kernel(scale: float = 1.0) -> dict:
    """Run a mixed workload under the kernel self-profiler.

    Returns ``KernelProfiler.report()``: event types ranked by exact
    dispatch count and by sampled wall time, the hottest callback
    targets, and queue-depth statistics.  The deterministic columns
    (counts, categories) are identical run to run; wall numbers are the
    machine's.
    """
    sim = Simulator()
    prof = sim.attach_profiler()
    link = FairShareLink(sim, bandwidth=1e6)
    res = Resource(sim, capacity=2)
    n_ticks = int(5_000 * scale)
    n_xfers = int(100 * scale)
    n_reqs = int(400 * scale)

    def ticker():
        for _ in range(n_ticks):
            yield sim.timeout(0.001)

    def mover(i):
        yield sim.timeout(i * 0.0001)
        for _ in range(n_xfers):
            yield link.transfer(500.0)

    def worker():
        for _ in range(n_reqs):
            req = res.request()
            yield req
            yield sim.timeout(0.0001)
            res.release(req)

    for _ in range(4):
        sim.process(ticker(), name="ticker")
    for i in range(8):
        sim.process(mover(i), name="mover")
    for _ in range(4):
        sim.process(worker(), name="worker")
    sim.call_in(0.5, lambda: None)
    sim.run()
    return prof.report(top_n=10)


def _measure_once(fn, scale: float) -> dict:
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    t0 = time.perf_counter()
    events = fn(scale)
    wall = time.perf_counter() - t0
    alloc = sys.getallocatedblocks() - blocks_before
    return {
        "events": events,
        "wall_s": round(wall, 6),
        "events_per_sec": round(events / wall, 1),
        "alloc_blocks_delta": alloc,
    }


def run_harness(scale: float = 1.0, repeats: int = 3) -> dict:
    """Run every scenario ``repeats`` times; keep the best (max events/sec).

    Best-of-N is the standard microbenchmark noise filter: scheduler
    preemption and frequency scaling only ever make a run *slower*, so the
    fastest observation is the closest to the code's true cost.
    """
    scenarios = {}
    for name, fn in SCENARIOS.items():
        best = None
        for _ in range(max(1, repeats)):
            result = _measure_once(fn, scale)
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        scenarios[name] = best
    return {
        "meta": {
            "scale": scale,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "metric": "events_per_sec (best of repeats)",
        },
        "scenarios": scenarios,
    }


def compare_to_baseline(current: dict, baseline: dict,
                        max_regression: float) -> list[str]:
    """Events/sec regressions beyond ``max_regression`` (0.30 = -30%).

    Only scenarios present on both sides are compared, so baseline rows
    with no current counterpart (the ``calendar_storm[*]`` and
    ``megascale_feed[calendar]`` rows of baselines written while the
    kernel had a second event-queue backend) are skipped.  Those
    baselines name the megascale heap row ``megascale_feed[heap]``."""
    failures = []
    base_scen = baseline.get("scenarios", baseline)
    for name, cur in current["scenarios"].items():
        base = base_scen.get(name) or base_scen.get(f"{name}[heap]")
        if not base:
            continue
        base_rate = base["events_per_sec"]
        ratio = cur["events_per_sec"] / base_rate if base_rate else 1.0
        marker = ""
        if ratio < 1.0 - max_regression:
            failures.append(name)
            marker = "  <-- REGRESSION"
        print(f"  {name:22s} {cur['events_per_sec']:>12,.0f} ev/s "
              f"(baseline {base_rate:>12,.0f}, x{ratio:.2f}){marker}")
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Kernel regression harness; writes BENCH_kernel.json")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down run for CI smoke (scale=0.25, repeats=2)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per scenario, best kept (default 3)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path (default ./BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline BENCH_kernel.json to compare against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail if events/sec drops more than this "
                             "fraction below baseline (default 0.30)")
    parser.add_argument("--min-obs-ratio", type=float, default=0.0,
                        help="fail if the obs-on/obs-off events/sec ratio "
                             "drops below this (CI gates at 0.85; "
                             "default 0.0 = report only)")
    parser.add_argument("--profile-out", default="BENCH_kernel_profile.json",
                        help="kernel self-profile JSON path "
                             "(default ./BENCH_kernel_profile.json)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.25 if args.quick else 1.0)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)

    print(f"kernel microbench: scale={scale} repeats={repeats}")
    report = run_harness(scale=scale, repeats=repeats)
    for name, r in report["scenarios"].items():
        print(f"  {name:22s} {r['events_per_sec']:>12,.0f} ev/s  "
              f"wall {r['wall_s']:.4f}s  alloc {r['alloc_blocks_delta']:+d}")

    overhead = measure_obs_overhead(scale=scale, repeats=repeats)
    report["obs_overhead"] = overhead
    print(f"  obs overhead ({overhead['scenario']}): "
          f"off {overhead['obs_off_events_per_sec']:,.0f} ev/s, "
          f"on {overhead['obs_on_events_per_sec']:,.0f} ev/s, "
          f"ratio x{overhead['ratio']:.2f}")

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")

    profile = profile_kernel(scale=scale)
    with open(args.profile_out, "w") as fh:
        json.dump(profile, fh, indent=1, sort_keys=True)
        fh.write("\n")
    top = profile["top_by_count"][0]
    print(f"wrote {args.profile_out} "
          f"({profile['events_seen']} events profiled; "
          f"hottest: {top['category']} x{top['count']})")

    if args.min_obs_ratio > 0.0 and overhead["ratio"] < args.min_obs_ratio:
        print(f"FAIL: observability overhead ratio x{overhead['ratio']:.2f} "
              f"below the x{args.min_obs_ratio:.2f} floor")
        return 1

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(f"comparing against {args.baseline} "
              f"(max regression {args.max_regression:.0%}):")
        failures = compare_to_baseline(report, baseline, args.max_regression)
        if failures:
            print(f"FAIL: events/sec regressed >{args.max_regression:.0%} "
                  f"in: {', '.join(failures)}")
            return 1
        print("OK: no scenario regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
