"""Series handles are bound once, before the hot path.

Every emitting component resolves its labeled series handles when it is
built, through :func:`repro.obs.bind` (or :func:`repro.obs.bind_by_site`
for per-site geo handles, which calls it), and its per-operation code
only records into them.  This walks every module under ``src/repro``
and fails on a ``.series(...)``/``.level(...)`` registry lookup anywhere
but a constructor or ``bind`` itself, since a lookup builds and sorts a
label dict every time it runs.

Because handles are bound at construction, a bundle attached later would
miss them, so ``repro.obs.enable`` refuses a second bundle.
"""

import ast
from pathlib import Path

import pytest

from repro.core import NetStorageSystem, SystemConfig
from repro.obs import enable
from repro.sim import Simulator
from repro.sim.units import mib

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LOOKUPS = {"series", "level"}
ALLOWED_SCOPES = {"__init__", "bind"}


class _LookupFinder(ast.NodeVisitor):
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.scopes: list[str] = []
        self.found: list[str] = []

    def _scoped(self, node, name: str) -> None:
        self.scopes.append(name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scoped(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scoped(node, "<lambda>")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        scope = self.scopes[-1] if self.scopes else "<module>"
        if isinstance(func, ast.Attribute) and func.attr in LOOKUPS \
                and scope not in ALLOWED_SCOPES:
            self.found.append(f"{self.filename}:{node.lineno}: "
                              f".{func.attr}() lookup in {scope}()")
        self.generic_visit(node)


def lookup_violations(source: str, filename: str = "<src>") -> list[str]:
    """One line per registry lookup outside a constructor or ``bind``."""
    finder = _LookupFinder(filename)
    finder.visit(ast.parse(source, filename))
    return finder.found


def test_no_registry_lookup_outside_constructors_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += lookup_violations(path.read_text(),
                                   str(path.relative_to(SRC)))
    assert not found, "\n".join(found)


def test_check_flags_hot_path_lookups():
    source = (
        "class Link:\n"
        "    def __init__(self, obs):\n"
        "        self.h = obs.series.series('link.bytes', link='a')\n"
        "        self.cb = lambda: obs.series.level('x')\n"
        "    def transfer(self, obs, n):\n"
        "        obs.series.series('link.bytes', link='a').record(n)\n"
        "def bind(sim, name):\n"
        "    return sim.obs.series.level(name)\n")
    found = lookup_violations(source)
    assert len(found) == 2
    assert ".level() lookup in <lambda>()" in found[0]
    assert ".series() lookup in transfer()" in found[1]


def test_enable_refuses_a_second_bundle():
    sim = Simulator()
    obs = enable(sim)
    with pytest.raises(RuntimeError, match="already attached"):
        enable(sim)
    assert sim.obs is obs


def test_system_joins_the_bundle_attached_before_it():
    sim = Simulator()
    obs = enable(sim, series_interval=60.0)
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=2, disk_count=8, disk_capacity=mib(64),
        observability=True))
    assert system.obs is obs
    # Handles are bound, but nothing is listed until it records.
    assert len(obs.series) == 0
    next(iter(system.cluster.blades.values())).fail()
    assert {s.name for s in obs.series.all_series()} == {
        "blade.up", "cluster.blades_down"}
    assert obs.series.interval == 60.0
