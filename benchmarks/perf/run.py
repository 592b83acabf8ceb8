"""The repo benchmark: host time of the declared workloads, end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload a,b] [--seed 2002]
        [--seconds 20] [--trace 0|1] [--smoke] [--out perf.jsonl]

For each workload, one after another, this script times ``import repro``
in a few fresh interpreters, then measures the workload in one more fresh
interpreter (``measure.py``).  It prints every metric by name with its
unit and, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (it adds the traced passes).  ``attempted`` counts unit runs and
``failed`` the unit runs that raised, broke an invariant, or changed
fingerprint.  ``--out`` appends each workload's full record as one JSON
line, which ``compare.py`` reads.  The exit code is 0 only when every
correctness check passed.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
MEASURE = os.path.join(HERE, "measure.py")
WORKLOAD_DIR = os.path.join(HERE, "workloads")

DEFAULT_SEED = 2002
DEFAULT_SECONDS = 20
#: Fresh interpreters timing ``import repro`` per workload (set-up is a
#: median of these, as run time is a statistic over rounds).
IMPORT_PROBES = 3
#: Wall-clock budget of one workload, probes and measurement together.
WORKLOAD_BUDGET_S = 170.0

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro, repro.plan, repro.geo, repro.obs
print(time.perf_counter() - t0)
"""

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "run_s": "s",
    "sim_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in layers.SELF_LAYERS},
    "sim.events": "count",
    "sim.events_per_op": "events/op",
    "sim.events_per_s": "1/s",
    "sim.timeouts": "count",
    "sim.process_starts": "count",
    "sim.queue_depth_max": "count",
    "link.transfers": "count",
    "cache.reads": "count",
    "cache.writes": "count",
    "cache.hit_ratio": "ratio",
    "cache.destaged": "count",
    "raid.ios": "count",
    "disk.ios": "count",
    "blade.cpu_ops": "count",
    "balancer.picks": "count",
    "geo.writes": "count",
    "geo.pump_resumes": "count",
    "geo.route_lookups": "count",
    "geo.wan_bytes": "B",
    "obs.series_records": "count",
    "obs.slo_evals": "count",
    "obs.off_ratio": "ratio",
    "faults.injected": "count",
    "plan.build_s": "s",
    "import_s": "s",
    "client.ops": "count",
    "client.ops_failed": "count",
    "client.failed_share": "ratio",
    "client.latency_samples": "count",
    "client.latency_p50_sim_s": "sim_s",
    "client.latency_p99_sim_s": "sim_s",
    "fluid.pulses": "count",
    "trace.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def workload_names() -> list[str]:
    return sorted(f[:-len(".json")] for f in os.listdir(WORKLOAD_DIR)
                  if f.endswith(".json"))


def _child(what: str, cmd: list[str], deadline: float) -> str:
    """Run one child interpreter to completion; returns its stdout."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchmarkError(f"out of time before the {what}")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchmarkError(f"the {what} ran past the time budget") from None
    if done.returncode != 0:
        raise BenchmarkError(f"the {what} exited with {done.returncode}")
    return done.stdout


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     smoke: bool) -> dict:
    """Import probes, then the measuring child; returns the final record."""
    deadline = perf_counter() + WORKLOAD_BUDGET_S
    probes = [float(_child("import probe",
                           [sys.executable, "-c", IMPORT_PROBE, SRC],
                           deadline).split()[-1])
              for _ in range(1 if smoke else IMPORT_PROBES)]
    cmd = [sys.executable, MEASURE, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    out = _child(f"{name} measurement", cmd, deadline).strip().splitlines()
    if not out:
        raise BenchmarkError(f"the {name} measurement printed nothing")
    record = json.loads(out[-1])
    import_s = statistics.median(probes)
    record["import_s_samples"] = probes
    record["end_to_end"]["setup_s"] = (import_s
                                       + record["per_layer"]["plan.build_s"])
    record["per_layer"]["import_s"] = import_s
    record["correct"] = not record["problems"]
    return record


def _print_record(record: dict) -> None:
    print(f"{record['workload']}: seed {record['seed']}, {record['units']} "
          f"units x {record['rounds']} rounds, {record['unit_errors']} unit "
          f"errors, fingerprint {record['fingerprint'][:16]}")
    for table, values in ((END_TO_END, record["end_to_end"]),
                          (PER_LAYER, record["per_layer"])):
        for name, unit in table.items():
            if name in values:
                print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")


def summary(records: list[dict], trace: bool) -> dict:
    """The result line: one workload's metrics under their own names,
    several workloads' under ``<workload>/<metric>``."""
    table = PER_LAYER if trace else END_TO_END
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        values = {**record["end_to_end"], **record["per_layer"]}
        for name, unit in table.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["unit_errors"] for r in records),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the declared workloads.")
    parser.add_argument("--workload", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall time of the timed rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced passes and reports the "
                             "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one unit per workload, one round, shortened "
                             "horizons, traced passes on")
    parser.add_argument("--out", help="append each workload's record here "
                                      "as one JSON line")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    missing = layers.missing_layers(SRC)
    if missing:
        print(f"run.py: packages with no layer in layers.LAYERS: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    known = workload_names()
    names = known if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(known)}")

    records = []
    try:
        for name in names:
            record = measure_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.smoke)
            _print_record(record)
            records.append(record)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    result = summary(records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
