"""Which functions of ``src/repro`` do the experiments actually reach?

Usage (from the repository root)::

    python3 tools/reach.py [--check] [--list]

Runs every driver of the repo in a child interpreter under a stdlib
``sys.setprofile`` probe (installed through a generated
``sitecustomize``, so coverage.py is not needed) and records which
``src/repro`` functions each one calls.  Drivers, by group:

* **reach**: what the paper's claims rest on.
  ``pytest benchmarks --benchmark-disable`` (every E/A bench, the matrix
  smoke and the perf self-tests; pytest-benchmark switches profilers off
  while it times, hence ``--benchmark-disable``), each
  ``examples/*.py``, and ``benchmarks/perf/run.py --smoke``;
* **unit**: ``pytest tests``;
* **import**: importing every ``repro`` module and nothing else.

It prints the number of functions, and their lines, that a reach driver
calls ("reached"), that only the unit tests call ("unit-only"), and that
nothing calls ("never").  ``--list`` names the last two groups.

A module is *unreached* when no reach driver calls any of its functions
beyond what importing it calls (``raid/parity.py`` builds its GF(2^8)
tables at import).  ``--check`` exits 1 when a module outside
:data:`ALLOWLIST` is unreached, when a function outside
:data:`NEVER_ALLOWLIST` is never called, or when an entry of either
allowlist is stale (its module is reached, its function is called, or
it is gone).  Both pytest drivers pin ``--hypothesis-seed=0``, so the
three sets are the same on every run.

A function is an ``ast`` ``def`` (methods and nested functions included,
lambdas and comprehensions not), keyed by its first line as the
interpreter keys its code object.  A driver that installs its own
profiler (the perf harness's cProfile pass) ends the probe in that
process; the harness runs the same units untraced before it.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Modules no experiment reaches on purpose: path under ``src/repro`` ->
#: why the module stays.
ALLOWLIST = {
    "raid/parity.py": "real-byte XOR and GF(2^8) P+Q math, the proof of "
                      "the erasure tolerance the RAID model assumes "
                      "(tests/test_raid_parity.py)",
    "integrity/checksum.py": "identity-seeded CRC32 over real bytes, the "
                             "proof that the corruptions the integrity "
                             "bookkeeping models are detectable "
                             "(tests/test_integrity_checksum.py)",
}

#: Functions nothing calls on purpose: (path under ``src/repro``,
#: qualified name) -> why the function stays.
NEVER_ALLOWLIST = {
    ("virt/chargeback.py", "Billable.allocated_bytes"):
        "a typing.Protocol member: the declaration a billable device "
        "satisfies, never itself called",
}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _probe(frame, event, arg):
    _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_PACKAGE"] + os.sep
    hits = sorted({(c.co_filename, c.co_firstlineno) for c in _seen
                   if c.co_filename.startswith(prefix)})
    path = os.path.join(os.environ["REACH_OUT"],
                        f"{os.environ['REACH_GROUP']}-{os.getpid()}.txt")
    with open(path, "w") as fh:
        fh.write(repr(hits))


def _after_fork():
    # Pool workers leave through os._exit, which skips atexit but runs
    # multiprocessing's finalizers.
    if "multiprocessing.util" in sys.modules:
        sys.modules["multiprocessing.util"].Finalize(None, _dump,
                                                     exitpriority=0)


atexit.register(_dump)
os.register_at_fork(after_in_child=_after_fork)
threading.setprofile(_probe)
sys.setprofile(_probe)
'''

IMPORT_ALL = """\
import importlib, pkgutil, repro
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(mod.name)
"""

GROUPS = ("reach", "unit", "import")


def drivers() -> list[tuple[str, list[str]]]:
    """(group, argv) of every driver, in run order."""
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--hypothesis-seed=0"]
    runs = [("reach", pytest + ["benchmarks", "--benchmark-disable"])]
    runs += [("reach", [py, path]) for path in
             sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    runs.append(("reach", [py, os.path.join(ROOT, "benchmarks", "perf",
                                            "run.py"), "--smoke"]))
    runs.append(("unit", pytest + ["tests"]))
    runs.append(("import", [py, "-c", IMPORT_ALL]))
    return runs


def functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """(file, first line) -> (module, qualified name, line count)."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found[(path, first)] = (module, name,
                                            child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def probe() -> dict[str, set[tuple[str, int]]]:
    """Run every driver under the probe; group -> (file, line) called."""
    hits: dict[str, set[tuple[str, int]]] = {g: set() for g in GROUPS}
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        with open(os.path.join(out_dir, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        for group, argv in drivers():
            shown = [os.path.relpath(a, ROOT) if a.startswith(ROOT)
                     else a.splitlines()[0] for a in argv[1:]]
            print(f"reach: [{group}] {' '.join(shown)}", file=sys.stderr,
                  flush=True)
            env = dict(os.environ, REACH_OUT=out_dir, REACH_GROUP=group,
                       REACH_PACKAGE=PACKAGE,
                       PYTHONPATH=os.pathsep.join([out_dir, SRC]))
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise SystemExit(f"reach: {' '.join(shown)} exited with "
                                 f"{done.returncode}")
        for path in glob.glob(os.path.join(out_dir, "*-*.txt")):
            group = os.path.basename(path).split("-", 1)[0]
            with open(path) as fh:
                hits[group].update(ast.literal_eval(fh.read()))
    return hits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="fail when a module outside its allowlist is "
                         "unreached, a function outside its allowlist is "
                         "never called, or an allowlist entry is stale")
    ap.add_argument("--list", action="store_true",
                    help="name every unit-only and never-called function")
    args = ap.parse_args()

    funcs = functions()
    hits = probe()
    reached = set(funcs) & hits["reach"]
    unit_only = (set(funcs) & hits["unit"]) - reached
    never = set(funcs) - reached - unit_only
    for label, keys in (("functions", funcs), ("reached", reached),
                        ("unit-only", unit_only), ("never", never)):
        lines = sum(funcs[key][2] for key in keys)
        print(f"{label:10s} {len(keys):5d} functions {lines:6d} lines")
    if args.list:
        for label, keys in (("unit-only", unit_only), ("never", never)):
            for key in sorted(keys, key=lambda k: funcs[k][:2]):
                module, name, n = funcs[key]
                print(f"{label:10s} {module}:{key[1]} {name} ({n} lines)")

    modules = {module for module, _name, _n in funcs.values()}
    beyond_import = {funcs[key][0] for key in reached - hits["import"]}
    unreached = sorted(modules - beyond_import)
    for module in unreached:
        print(f"unreached  {module}: "
              f"{ALLOWLIST.get(module, 'not allowlisted')}")
    if not args.check:
        return 0
    failures = [f"{m}: no bench, example or perf workload reaches any of "
                f"its functions" for m in unreached if m not in ALLOWLIST]
    failures += [f"{m}: allowlisted but reached or gone, drop its entry"
                 for m in sorted(ALLOWLIST) if m not in unreached]
    never_names = {funcs[key][:2] for key in never}
    failures += [f"{m}: {name} is never called: delete it, or allowlist "
                 f"it with a reason" for m, name in sorted(never_names)
                 if (m, name) not in NEVER_ALLOWLIST]
    failures += [f"{m}: {name} allowlisted as never called but called "
                 f"or gone, drop its entry"
                 for m, name in sorted(NEVER_ALLOWLIST)
                 if (m, name) not in never_names]
    for failure in failures:
        print(f"reach: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
