"""Importing the package must not load scipy or networkx.

Every experiment, example and benchmark probe starts a fresh interpreter,
and scipy.stats alone took about half a second of each start.  scipy is
imported only inside the one function that needs it
(``repro.sim.replications.summarize``); networkx is a test-only
dependency.  The check runs in a fresh interpreter, since this test
process may already have loaded either library.

Run directly (``PYTHONPATH=src python tests/test_startup_imports.py``)
it prints the offending modules and exits non-zero.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy", "networkx")

PROBE = f"""
import importlib, pkgutil, sys
import repro, repro.plan, repro.geo, repro.obs
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(" ".join(sorted({{m.split(".")[0] for m, mod in sys.modules.items()
                       if m.split(".")[0] in {HEAVY!r} and mod is not None}})))
"""


def heavy_modules_after_import() -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return done.stdout.split()


def test_import_leaves_scipy_and_networkx_unloaded():
    assert heavy_modules_after_import() == []


if __name__ == "__main__":
    loaded = heavy_modules_after_import()
    print("loaded at import:", " ".join(loaded) or "none")
    sys.exit(1 if loaded else 0)
