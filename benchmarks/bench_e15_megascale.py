"""E15 — Megascale: fluid aggregated workloads at 10⁶+ clients per site.

The paper's infrastructure served a national lab's full user population
through shared portals; this bench pushes the reproduction's substrate to
the population scales that implies — 10⁶+ modeled clients per site — and
proves the mechanism that makes it affordable: the **fluid workload
path** (``repro.workloads.aggregate``).  A million-client site costs
O(pulses) kernel events, not O(clients), so the declared scenario below
models ≥10⁶ clients/site end to end in a few thousand events and never
holds more than a few dozen events pending.

Two harnesses share this file:

* a pytest test (collected with tier-1) asserting the event economy at
  smoke scale;
* a standalone harness writing ``BENCH_e15_megascale.json``:
  ``python benchmarks/bench_e15_megascale.py [--quick]
  [--baseline BENCH.json --max-regression 0.30]``.
  CI perf-smoke runs ``--quick`` against the merge-base measured on the
  same runner and fails when completed ops per wall second fall >30%
  below it, or on fingerprints that differ between repeats.  Ops, not
  kernel events, are the work: a change that drops events which model
  nothing must not read as a regression.
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

from repro.plan import ScenarioSpec, SiteSpec, WorkloadSpec, run_scenario

#: Modeled population per site — the headline number.  Constant across
#: quick/full because a fluid client is free; only the horizon scales.
CLIENTS_PER_SITE = 1_250_000


def megascale_spec(horizon_s: float) -> ScenarioSpec:
    """The declared million-client scenario: two aggregate sites, async
    geo replication, a throttled portal, and a mid-run site loss."""
    return ScenarioSpec(
        name="e15-megascale", seed=1015, horizon_s=horizon_s,
        sites=(SiteSpec("alameda", (0.0, 0.0)),
               SiteSpec("brookdale", (600.0, -450.0))),
        workload=WorkloadSpec(
            kind="fluid", clients=CLIENTS_PER_SITE, op_bytes=4096,
            ops_per_client_s=0.02, read_fraction=0.75, hit_ratio=0.92,
            pulse_s=1.0, admit_ops_s=30_000.0,
            geo_mode="async", geo_sites=1),
        site_backing="aggregate",
        faults={"seed": 7, "faults": [
            {"kind": "site_loss", "target": "brookdale",
             "at": horizon_s * 0.4, "duration": horizon_s * 0.2},
        ]})


def run_fluid(horizon_s: float) -> dict:
    gc.collect()  # level the allocator between repeats
    t0 = time.perf_counter()
    result = run_scenario(megascale_spec(horizon_s))
    wall = time.perf_counter() - t0
    return {
        "events": result.events,
        "wall_s": round(wall, 6),
        "events_per_sec": round(result.events / wall, 1),
        "ops_completed": result.ok,
        "ops_failed": result.failed,
        "fingerprint": result.fingerprint,
    }


def run_harness(quick: bool, repeats: int) -> dict:
    horizon = 300.0 if quick else 1200.0
    runs = [run_fluid(horizon) for _ in range(max(1, repeats))]
    best = min(runs, key=lambda r: r["wall_s"])
    return {
        "meta": {
            "quick": quick,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "clients_per_site": CLIENTS_PER_SITE,
            "metric": "ops_per_wall_s (best of repeats)",
        },
        "megascale_fluid": {
            "horizon_s": horizon,
            **best,
            "fingerprint_match": len({r["fingerprint"] for r in runs}) == 1,
        },
    }


def ops_per_wall_s(row: dict) -> float:
    """Completed client ops per wall second of one run row."""
    return row["ops_completed"] / row["wall_s"]


def compare_to_baseline(current: dict, baseline: dict,
                        max_regression: float) -> list[str]:
    """The fluid scenario's ops-per-wall-second regression beyond the
    threshold.

    Baselines written while the kernel had a second event-queue backend
    keep the fluid row under ``backends.heap``; that row is the one
    compared.  Their calendar and ``pending_storm`` rows have no
    counterpart any more and are skipped."""
    cur = current["megascale_fluid"]
    base = baseline.get("megascale_fluid", {})
    base = base.get("backends", {}).get("heap", base)
    if not base.get("wall_s") or "ops_completed" not in base:
        print("  megascale_fluid: no baseline row, not compared")
        return []
    rate, base_rate = ops_per_wall_s(cur), ops_per_wall_s(base)
    ratio = rate / base_rate
    marker = ""
    failures = []
    if ratio < 1.0 - max_regression:
        failures.append("megascale_fluid")
        marker = "  <-- REGRESSION"
    print("  megascale_fluid".ljust(34)
          + f"{rate:>14,.0f} ops/s "
          f"(baseline {base_rate:>14,.0f}, x{ratio:.2f}){marker}")
    return failures


# ---------------------------------------------------------------------------
# pytest test (tier-1): the event economy at smoke scale
# ---------------------------------------------------------------------------


def test_e15_fluid_megascale_event_economy():
    """The declared megascale scenario (shrunk horizon, full population,
    fault campaign included) models a million-plus clients per site in a
    kernel-event budget that doesn't mention the population."""
    result = run_scenario(megascale_spec(90.0))
    assert result.ok > 1_000_000
    assert result.events < result.ok / 50
    # The site-loss campaign actually bit mid-stream.
    assert result.failed > 0


def test_e15_baseline_gate_compares_ops_per_wall_second():
    """The merge-base gate reads completed ops per wall second: a head
    that dispatches fewer kernel events for the same ops at the same
    wall time per op passes, and one 40% slower per op fails."""
    def doc(events: int, wall_s: float) -> dict:
        return {"megascale_fluid": {
            "events": events, "events_per_sec": events / wall_s,
            "ops_completed": 14_908_531, "wall_s": wall_s}}

    base = doc(80_000, 0.317)
    assert compare_to_baseline(doc(25_000, 0.317), base, 0.30) == []
    assert compare_to_baseline(doc(80_000, 0.317 / 0.6), base, 0.30) == [
        "megascale_fluid"]


# ---------------------------------------------------------------------------
# Standalone harness
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Megascale bench; writes BENCH_e15_megascale.json")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 300s fluid horizon, repeats=2")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs of the scenario, best kept")
    parser.add_argument("--out", default="BENCH_e15_megascale.json",
                        help="output JSON path")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compare ops/s against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail if ops per wall second drop more than "
                             "this fraction below baseline (default 0.30)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 3)

    print(f"e15 megascale: quick={args.quick} repeats={repeats} "
          f"clients/site={CLIENTS_PER_SITE:,}")
    report = run_harness(args.quick, repeats)

    fluid = report["megascale_fluid"]
    print("  megascale_fluid".ljust(22)
          + f"{ops_per_wall_s(fluid):>14,.0f} ops/s  "
          f"{fluid['events']:,} events for {fluid['ops_completed']:,} ops "
          f"({fluid['ops_failed']:,} failed) in {fluid['wall_s']:.3f} s")
    print(f"  fingerprints match across repeats: {fluid['fingerprint_match']}")

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    rc = 0
    if not fluid["fingerprint_match"]:
        print("FAIL: fingerprints diverged between repeats")
        rc = 1
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(f"comparing against {args.baseline} "
              f"(max regression {args.max_regression:.0%}):")
        failures = compare_to_baseline(report, baseline, args.max_regression)
        if failures:
            print(f"FAIL: ops/sec regressed >{args.max_regression:.0%} "
                  f"in: {', '.join(failures)}")
            rc = 1
        elif rc == 0:
            print("OK: ops/sec within the threshold")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
