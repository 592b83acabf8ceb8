"""Compare benchmark records of a parent commit (BASE) and a change (HEAD).

Usage (from the repository root)::

    python3 benchmarks/perf/compare.py BASE.jsonl HEAD.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per workload
per invocation; run the two commits alternately, ten or more times each,
so the i-th BASE and i-th HEAD records form a pair.  For every (workload,
end-to-end metric) this prints both sides' median and quartiles and a
verdict against the bound BENCHMARK.json fixes for the metric:

* ``better``: with at least ten runs a side, every HEAD run beats every
  BASE run, or HEAD's median beats BASE's by more than BASE's quartile
  spread and HEAD wins at least nine pairs in ten;
* ``unresolved``: otherwise, when either side's quartile spread (as a
  share of its median) exceeds the bound;
* ``worse``: otherwise, when HEAD's median is worse by more than the bound;
* ``same``: otherwise.

It also says whether each workload's fingerprints are identical on the
seeds both sides ran.  The exit code is 1 on any ``worse``, on any unit
error, or on a record whose correctness checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: Runs a side needs, and share of pairs the change must win, before a
#: gain is claimed.
MIN_RUNS = 10
MIN_WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """``(verdict, relative change of the medians, positive = better)``."""
    def gain(new: float, old: float) -> float:
        return (old - new) / old if lower_is_better else (new - old) / old

    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    change = gain(h2, b2)
    enough = min(len(base), len(head)) >= MIN_RUNS
    if enough and all(gain(h, b) > 0 for h in head for b in base):
        return "better", change
    if max((b3 - b1) / b2, (h3 - h1) / h2) > bound:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = list(zip(base, head))
    wins = sum(gain(h, b) > 0 for b, h in pairs)
    if enough and change > (b3 - b1) / b2 \
            and wins >= MIN_WIN_SHARE * len(pairs):
        return "better", change
    return "same", change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark records.")
    parser.add_argument("base", help="records of the parent commit")
    parser.add_argument("head", help="records of the change")
    parser.add_argument("--bench", default=BENCHMARK,
                        help="BENCHMARK.json holding the metric bounds")
    args = parser.parse_args(argv)
    with open(args.bench) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"base": load(args.base), "head": load(args.head)}

    failing = [f"{side}: {r['workload']} seed {r['seed']}: "
               f"{r['unit_errors']} unit errors, "
               f"{len(r['problems'])} problems"
               for side, records in sides.items() for r in records
               if r["unit_errors"] or not r["correct"]]
    worse = []
    workloads = sorted({r["workload"] for rs in sides.values() for r in rs})
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        runs = {side: [r for r in records if r["workload"] == workload
                       and not r["smoke"]]
                for side, records in sides.items()}
        if runs["base"] and runs["head"]:
            for m in metrics:
                values = {side: [r["end_to_end"][m["name"]] for r in rs]
                          for side, rs in runs.items()}
                result, change = verdict(values["base"], values["head"],
                                         m["bound"], m["better"] == "lower")
                if result == "worse":
                    worse.append(f"{workload} {m['name']}")
                cells = []
                for side in ("base", "head"):
                    q1, q2, q3 = quartiles(values[side])
                    cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
                print(f"{workload:<16} {m['name']:<14} {cells[0]:>32} "
                      f"{cells[1]:>32} {change:>+8.1%} {m['bound']:>6.0%}  "
                      f"{result}")
        prints = {side: {(r["seed"], r["smoke"]): r["fingerprint"]
                         for r in rs if r["workload"] == workload}
                  for side, rs in sides.items()}
        common = sorted(set(prints["base"]) & set(prints["head"]))
        if not common:
            status = "no seed run on both sides"
        elif all(prints["base"][k] == prints["head"][k] for k in common):
            status = f"identical on {len(common)} seed(s)"
        else:
            differ = [k[0] for k in common
                      if prints["base"][k] != prints["head"][k]]
            status = f"DIFFER on seed(s) {differ}"
        print(f"{workload:<16} fingerprints {status}")

    for line in failing:
        print(f"FAIL {line}")
    for line in worse:
        print(f"WORSE {line}")
    return 1 if failing or worse else 0


if __name__ == "__main__":
    sys.exit(main())
