"""The scenario-matrix CI gate: one JSON sweep, no per-scenario Python.

``matrix_smoke.json`` declares a 48-cell sweep (1–3 sites × replication
2–3 × replica selection static/cost × post-heal reconcile off/on × fault
campaign on/off); this gate expands it through
:class:`repro.plan.MatrixSpec`, runs every cell through the parallel
replication runner, and asserts:

* every cell compiles (``plan_storage`` with spec-path errors), builds
  (plan-vs-built assertions), provisions, and runs to its horizon;
* every cell completed client iterations, and the fault-campaign cells
  actually armed their faults;
* fingerprints are deterministic: a serial re-run reproduces the
  parallel sweep byte-for-byte;
* every cell reproduces its fingerprint in the committed golden
  ``matrix_smoke.fingerprints.json``, and a cell that drifted is named.

``--out FILE`` writes the name → fingerprint map as sorted JSON; CI runs
this gate on two Python versions and diffs the two files — the
fingerprints must match across interpreters, which is the repo-wide
determinism bar applied to whole declared scenarios.  A change that
means to move fingerprints regenerates the golden with
``--out benchmarks/matrix_smoke.fingerprints.json``.

Standalone (no pytest): ``PYTHONPATH=src python benchmarks/bench_matrix_smoke.py``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.plan import MatrixSpec, run_matrix  # noqa: E402

MATRIX_PATH = os.path.join(os.path.dirname(__file__), "matrix_smoke.json")
GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "matrix_smoke.fingerprints.json")


def load_matrix() -> MatrixSpec:
    with open(MATRIX_PATH) as fh:
        return MatrixSpec.from_json(fh.read())


def run_gate(max_workers: int | None = None):
    """Expand + run the sweep; return (results, problems)."""
    problems: list[str] = []
    matrix = load_matrix()
    specs = matrix.expand()
    if len(specs) < 24:
        problems.append(f"matrix expanded to {len(specs)} cells, need >= 24")
    results = run_matrix(matrix, max_workers=max_workers)
    for spec, result in zip(specs, results):
        if result.name != spec.name:
            problems.append(f"result order broke at {result.name!r}")
        if result.sim_time < spec.horizon_s:
            problems.append(f"{result.name}: stopped at t={result.sim_time}")
        if result.ok <= 0:
            problems.append(f"{result.name}: no client iteration completed")
        if spec.faults is None and result.failed:
            problems.append(
                f"{result.name}: {result.failed} failures without a campaign")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = fingerprint_doc(results)
    for name in sorted(golden.keys() | got.keys()):
        if golden.get(name) != got.get(name):
            problems.append(f"{name}: fingerprint drifted from "
                            f"{os.path.basename(GOLDEN_PATH)}")
    return results, problems


def fingerprint_doc(results) -> dict[str, str]:
    return {r.name: r.fingerprint for r in results}


def main(argv: list[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="scenario-matrix smoke gate (see docs/topology.md)")
    parser.add_argument("--out", help="write name -> fingerprint JSON here")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers for the sweep")
    args = parser.parse_args(argv)

    results, problems = run_gate(max_workers=args.workers)
    for r in results:
        status = "ok" if not r.failed else f"ok ({r.failed} faulted ops)"
        print(f"  {r.name:<55} {r.ok:>4} iters  {status:<20} "
              f"{r.fingerprint[:12]}")

    # Determinism: a serial second pass must reproduce every fingerprint.
    rerun, _ = run_gate(max_workers=1)
    if fingerprint_doc(rerun) != fingerprint_doc(results):
        problems.append("serial re-run changed fingerprints")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(fingerprint_doc(results), fh, sort_keys=True, indent=2)
        print(f"wrote {len(results)} fingerprints to {args.out}")

    for line in problems:
        print(f"FAIL: {line}")
    print("matrix-smoke:", "FAIL" if problems else "OK",
          f"({len(results)} scenarios)")
    return 1 if problems else 0


# -- pytest entry points (ride the tier-1 suite) -------------------------------


def test_matrix_smoke_gate(benchmark):
    from _common import run_one
    results, problems = run_one(benchmark, run_gate)
    assert not problems, problems
    assert len(results) >= 24


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
