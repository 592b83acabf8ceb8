"""Measure one workload in this interpreter and print its record as JSON.

``run.py`` starts a fresh interpreter on this file for each workload, one
after another, so each record's peak RSS belongs to its workload alone.
:func:`measure` is also what the smoke test calls in-process.

Passes, in order:

1. **timed rounds** (tracing off): every unit is set up and run once per
   round, round-robin, until ``seconds`` have passed (at least
   ``MIN_ROUNDS`` rounds).  ``run_s`` sums each unit's minimum run time
   across the rounds; set-up sums each unit's median set-up time.
2. with ``trace``: a **depth pass** with the kernel profiler attached
   (queue depth), a **traced pass** under cProfile (each layer's share of
   host self time, exact call counts), and, for workloads with
   observability on, **obs-off rounds** interleaving each unit with its
   obs-off twin.

Every pass checks each unit's outcome; every run of a unit with the same
configuration must reproduce the first round's fingerprint exactly.
A smoke run does one round and the traced passes on shortened units.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import layers  # noqa: E402
from units import make_units  # noqa: E402

WORKLOAD_DIR = os.path.join(HERE, "workloads")

#: Fewest timed rounds: a unit's minimum needs a few tries to land in a
#: fast stretch of a host whose speed drifts over seconds.
MIN_ROUNDS = 3
#: Rounds of the interleaved obs-on/obs-off comparison.
OFF_ROUNDS = 2
#: Kernel-profiler queue-depth sampling: every 4th event, keeping up to
#: 2**17 samples per unit (half a million events).
DEPTH_EVERY = 4
DEPTH_CAPACITY = 1 << 17
#: The traced pass must charge at least this share of its host time to
#: a layer.
MIN_ATTRIBUTED = 0.98


def load_workload(name: str) -> dict:
    with open(os.path.join(WORKLOAD_DIR, name + ".json")) as fh:
        return json.load(fh)


class UnitLog:
    """Every unit run of a pass: the first outcome per unit, which later
    runs must reproduce, and each run that raised or went wrong."""

    def __init__(self, units: list, reference: "UnitLog | None" = None
                 ) -> None:
        self.units = units
        self.first: list = (list(reference.first) if reference is not None
                            else [None] * len(units))
        self.attempted = 0
        self.errors: list[str] = []

    def attempt(self, i: int, label: str, fn):
        """``fn(unit)`` returns a tuple led by the unit's Outcome; returns
        that tuple, or None when the run raised."""
        unit = self.units[i]
        self.attempted += 1
        try:
            got = fn(unit)
        except Exception:  # a unit that crashes is reported, not fatal
            self.errors.append(f"{unit.name} ({label}): raised\n"
                               + traceback.format_exc(limit=6))
            return None
        outcome = got[0]
        problems = list(outcome.problems)
        ref = self.first[i]
        if ref is None:
            self.first[i] = outcome
        elif outcome.fingerprint != ref.fingerprint:
            problems.append(f"fingerprint {outcome.fingerprint[:12]} differs "
                            f"from {ref.fingerprint[:12]}")
        if problems:
            self.errors.append(f"{unit.name} ({label}): "
                               + "; ".join(problems))
        return got


def _timed(unit):
    gc.collect()  # each unit starts from a collected heap
    t0 = perf_counter()
    state = unit.setup()
    t1 = perf_counter()
    result = unit.run(state)
    t2 = perf_counter()
    return unit.outcome(state, result), t1 - t0, t2 - t1


def timed_rounds(log: UnitLog, seconds: float,
                 min_rounds: int) -> tuple[list, list, list]:
    """Round-robin over the units, at least ``min_rounds`` times and until
    ``seconds`` have passed; returns per-unit set-up times, per-unit run
    times, and each round's run sum."""
    n = len(log.units)
    setup_s: list[list[float]] = [[] for _ in range(n)]
    run_s: list[list[float]] = [[] for _ in range(n)]
    round_sums: list[float] = []
    start = perf_counter()
    while len(round_sums) < min_rounds or perf_counter() - start < seconds:
        label = f"round {len(round_sums)}"
        total = 0.0
        for i in range(n):
            got = log.attempt(i, label, _timed)
            if got is not None:
                setup_s[i].append(got[1])
                run_s[i].append(got[2])
                total += got[2]
        round_sums.append(total)
    return setup_s, run_s, round_sums


def _sum_min(samples: list[list[float]]) -> float:
    return sum(min(s) for s in samples if s)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def _depth_run(unit):
    state = unit.setup()
    profiler = state.sim.attach_profiler(depth_every=DEPTH_EVERY,
                                         depth_capacity=DEPTH_CAPACITY)
    result = unit.run(state)
    return unit.outcome(state, result), profiler.depth_stats().get("max", 0.0)


def _traced(profile: cProfile.Profile):
    def run(unit):
        gc.collect()
        t0 = perf_counter()
        profile.enable()
        try:
            state = unit.setup()
            result = unit.run(state)
        finally:
            profile.disable()
        wall = perf_counter() - t0
        return unit.outcome(state, result), wall
    return run


def _obs_off_ratio(units: list, logs: list[UnitLog], rounds: int) -> float:
    """Run time of the units with observability off over on, from
    ``rounds`` rounds interleaving each unit with its obs-off twin."""
    on_log = UnitLog(units, reference=logs[0])
    off_log = UnitLog([u.without_obs() for u in units])
    logs += [on_log, off_log]
    on = [[] for _ in units]
    off = [[] for _ in units]
    for r in range(rounds):
        for i in range(len(units)):
            for log, runs in ((on_log, on), (off_log, off)):
                got = log.attempt(i, f"obs-off round {r}", _timed)
                if got is not None:
                    runs[i].append(got[2])
    on_s = _sum_min(on)
    return _sum_min(off) / on_s if on_s else 0.0


def _trace_metrics(units: list, logs: list[UnitLog], base_s: float,
                   off_rounds: int, problems: list[str]) -> dict[str, float]:
    depth_log = UnitLog(units, reference=logs[0])
    traced_log = UnitLog(units, reference=logs[0])
    logs += [depth_log, traced_log]

    depth_max = 0.0
    for i in range(len(units)):
        got = depth_log.attempt(i, "depth pass", _depth_run)
        if got is not None:
            depth_max = max(depth_max, got[1])

    profile = cProfile.Profile()
    traced_wall = 0.0
    run = _traced(profile)
    for i in range(len(units)):
        got = traced_log.attempt(i, "traced pass", run)
        if got is not None:
            traced_wall += got[1]
    stats = pstats.Stats(profile).stats
    attribution = layers.Attribution(SRC, HERE)
    self_s, unattributed, total = attribution.self_times(stats)
    share = unattributed / total if total else 1.0
    if share > 1.0 - MIN_ATTRIBUTED:
        problems.append(f"traced pass: {share:.1%} of host time charged to "
                        f"no layer (at most {1.0 - MIN_ATTRIBUTED:.0%})")

    out = {f"{layer}.self_share": t / total if total else 0.0
           for layer, t in self_s.items()}
    out.update(attribution.call_counts(stats))
    out["sim.queue_depth_max"] = depth_max
    out["trace.total_s"] = total
    out["trace.overhead_ratio"] = traced_wall / base_s if base_s else 0.0
    out["trace.unattributed_share"] = share
    out["obs.off_ratio"] = (_obs_off_ratio(units, logs, off_rounds)
                            if any(u.observability for u in units) else 1.0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Measure one workload; returns its JSON-ready record."""
    units = make_units(load_workload(workload), seed, smoke)
    timed_log = UnitLog(units)
    logs = [timed_log]
    setup_s, run_s, round_sums = timed_rounds(
        timed_log, 0.0 if smoke else seconds, 1 if smoke else MIN_ROUNDS)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for o in timed_log.first if o is not None]
    ok = sum(o.ok for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    events = sum(o.events for o in outcomes)
    counts: dict[str, float] = {}
    for o in outcomes:
        for key, value in o.counts.items():
            counts[key] = counts.get(key, 0) + value
    latencies = np.asarray([x for o in outcomes for x in o.latencies])
    run_total = _sum_min(run_s)
    build_total = sum(statistics.median(s) for s in setup_s if s)
    reads = counts["cache.hits"] + counts["cache.misses"]

    per_layer = {
        "plan.build_s": build_total,
        "sim.events": events,
        "sim.events_per_op": events / max(1, ok + failed),
        "sim.events_per_s": events / run_total if run_total else 0.0,
        "cache.hit_ratio": counts["cache.hits"] / reads if reads else 0.0,
        "cache.destaged": counts["cache.destaged"],
        "blade.cpu_ops": counts["blade.cpu_ops"],
        "disk.ios": counts["disk.ios"],
        "faults.injected": counts["faults.injected"],
        "geo.wan_bytes": counts["geo.wan_bytes"],
        "fluid.pulses": counts["fluid.pulses"],
        "client.ops": ok,
        "client.ops_failed": failed,
        "client.failed_share": failed / max(1, ok + failed),
        "client.latency_samples": len(latencies),
        "client.latency_p50_sim_s": (float(np.percentile(latencies, 50))
                                     if len(latencies) else 0.0),
        "client.latency_p99_sim_s": (float(np.percentile(latencies, 99))
                                     if len(latencies) else 0.0),
    }
    problems: list[str] = []
    if trace or smoke:
        base_s = sum(min(a + b for a, b in zip(s, r))
                     for s, r in zip(setup_s, run_s) if r)
        per_layer.update(_trace_metrics(units, logs, base_s,
                                        1 if smoke else OFF_ROUNDS, problems))

    errors = [e for log in logs for e in log.errors]
    fingerprint = hashlib.sha256(json.dumps(
        [o.fingerprint if o else None for o in timed_log.first]).encode())
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": bool(trace or smoke),
        "units": len(units),
        "rounds": len(round_sums),
        "round_run_s": round_sums,
        "round_run_s_quartiles": _quartiles(round_sums),
        "attempted": sum(log.attempted for log in logs),
        "unit_errors": len(errors),
        "problems": errors + problems,
        "fingerprint": fingerprint.hexdigest(),
        "end_to_end": {
            "run_s": run_total,
            "sim_ops_per_s": ok / run_total if run_total else 0.0,
            "peak_rss_mib": peak_rss_mib,
        },
        "per_layer": per_layer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
