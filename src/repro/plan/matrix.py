"""The scenario compiler: one matrix spec → many concrete scenarios.

A :class:`MatrixSpec` is a base :class:`~repro.plan.spec.ScenarioSpec`
plus a ``sweep`` mapping of axis name → list of values.  :meth:`MatrixSpec.
expand` takes the cartesian product (axes in canonical order, values in
declaration order) and yields fully concrete, individually-seeded
``ScenarioSpec``\\ s — so a 12-scenario sweep is one JSON file, not twelve
hand-written benches::

    {"name": "smoke",
     "base": {"horizon_s": 600, "workload": {"clients": 1}},
     "sweep": {"sites": [1, 3],
               "replication": [2, 3],
               "faults": [null, {"seed": 7, "faults": [...]}]}}

Axes
----

* ``sites`` — site *count*: truncates or extends the base site list
  (generated sites are ``site1``, ``site2``, … spaced 500 km apart;
  links referencing dropped sites are pruned);
* cluster axes (``blade_count``, ``replication``, ``disk_count``, …) —
  any :class:`~repro.plan.spec.ClusterSpec` field, overriding the base
  scenario-wide cluster;
* workload axes (``clients``, ``op_bytes``, ``period_s``) — any
  :class:`~repro.plan.spec.WorkloadSpec` field;
* scenario axes (``horizon_s``, ``site_backing``, ``selection``,
  ``reconcile``, ``observability``, ``integrity``, ``scrub_passes``,
  ``profiler``) — direct fields;
* ``faults`` — ``null`` (no campaign) or an inline fault-plan document.

Fault targets in a sweep may use the ``@`` *template* prefix
(``"@site0.blade1"``): the ``@`` is stripped at expansion, and in
single-site scenarios the leading ``{site}.`` qualifier goes too (the
same campaign lands on ``blade1`` in a one-site scenario and
``site0.blade1`` in a three-site one), so one campaign document serves
every point of the sites axis.

Each expanded scenario is named ``base/axis=value/...`` and seeded with
:func:`~repro.sim.rng.stable_hash` over (base seed, scenario name):
deterministic, distinct per cell, identical across runs and machines.

:func:`run_matrix` drives every expanded scenario through the PR-3
:func:`~repro.sim.replications.run_replications` parallel runner (the
"replication index" is the scenario index), merging results back in
matrix order, so serial and parallel sweeps report identically.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from functools import partial
from itertools import product
from typing import Any, Mapping, Sequence

from ..sim.replications import run_replications
from ..sim.rng import stable_hash
from .planner import plan_storage
from .scenario import ScenarioResult
from .spec import (ClusterSpec, ScenarioSpec, SiteSpec, SpecError,
                   WorkloadSpec, _reject_unknown)

_CLUSTER_AXES = tuple(f.name for f in fields(ClusterSpec))
_WORKLOAD_AXES = tuple(f.name for f in fields(WorkloadSpec))
_SCENARIO_AXES = ("horizon_s", "site_backing", "selection", "reconcile",
                  "observability", "integrity", "scrub_passes", "profiler")

#: Canonical expansion order: topology first, then cluster shape, then
#: workload, then campaign toggles, faults last — the order axes nest in
#: scenario names regardless of their order in the JSON document.
_AXIS_ORDER = (("sites",) + _CLUSTER_AXES + _WORKLOAD_AXES
               + _SCENARIO_AXES + ("faults",))


def _axis_label(axis: str, value: Any) -> str:
    if axis == "faults":
        return "faults=on" if value is not None else "faults=off"
    if isinstance(value, bool):
        return f"{axis}={'on' if value else 'off'}"
    return f"{axis}={value}"


def _apply_sites(spec: ScenarioSpec, count: Any) -> ScenarioSpec:
    if not isinstance(count, int) or count < 1:
        raise SpecError("sweep.sites",
                        f"site counts must be ints >= 1, got {count!r}")
    sites = list(spec.sites[:count])
    for i in range(len(sites), count):
        sites.append(SiteSpec(f"site{i}", position=(0.0, 500.0 * i)))
    names = {s.name for s in sites}
    links = tuple(l for l in spec.links if l.a in names and l.b in names)
    return replace(spec, sites=tuple(sites), links=links)


def _rewrite_fault_targets(doc: Mapping, site_names: list[str]) -> dict:
    """Resolve ``@``-templated targets against the expanded topology."""
    out = dict(doc)
    faults = []
    for fault in out.get("faults", []):
        fault = dict(fault)
        target = fault.get("target", "")
        if isinstance(target, str) and target.startswith("@"):
            target = target[1:]
            if len(site_names) == 1:
                for name in site_names + ["site0"]:
                    if target.startswith(name + "."):
                        target = target[len(name) + 1:]
                        break
            fault["target"] = target
        faults.append(fault)
    out["faults"] = faults
    return out


def _apply_axis(spec: ScenarioSpec, axis: str, value: Any) -> ScenarioSpec:
    if axis == "sites":
        return _apply_sites(spec, value)
    if axis == "faults":
        if value is None:
            return replace(spec, faults=None)
        if not isinstance(value, Mapping):
            raise SpecError("sweep.faults",
                            "values must be null or an inline fault-plan "
                            f"document, got {value!r}")
        return replace(spec, faults=value)
    if axis in _CLUSTER_AXES:
        return replace(spec, cluster=replace(spec.cluster, **{axis: value}))
    if axis in _WORKLOAD_AXES:
        return replace(spec, workload=replace(spec.workload, **{axis: value}))
    return replace(spec, **{axis: value})


class MatrixSpec:
    """A sweep over scenario axes, expanding into concrete scenarios."""

    def __init__(self, base: ScenarioSpec,
                 sweep: Mapping[str, Sequence[Any]],
                 name: str = "matrix") -> None:
        self.name = name
        self.base = base
        for axis, values in sweep.items():
            if axis not in _AXIS_ORDER:
                raise SpecError(
                    f"sweep.{axis}",
                    f"unknown sweep axis; known axes: "
                    f"{', '.join(_AXIS_ORDER)}")
            if not isinstance(values, Sequence) or isinstance(values, str) \
                    or not list(values):
                raise SpecError(f"sweep.{axis}",
                                f"expected a non-empty list of values, "
                                f"got {values!r}")
        # Canonical axis order, not document order.
        self.sweep: dict[str, list[Any]] = {
            axis: list(sweep[axis]) for axis in _AXIS_ORDER if axis in sweep}

    def __len__(self) -> int:
        n = 1
        for values in self.sweep.values():
            n *= len(values)
        return n

    def expand(self) -> list[ScenarioSpec]:
        """Every concrete scenario of the sweep, compiled-order stable.

        Each is validated through :func:`plan_storage` at expansion time,
        so a bad cell fails here with its spec path, not mid-sweep.
        """
        axes = list(self.sweep)
        out: list[ScenarioSpec] = []
        for combo in product(*(self.sweep[a] for a in axes)):
            spec = self.base
            for axis, value in zip(axes, combo):
                spec = _apply_axis(spec, axis, value)
            if spec.faults is not None:
                # Resolve "@" fault-target templates against the final
                # topology, wherever the campaign came from (base or axis).
                spec = replace(spec, faults=_rewrite_fault_targets(
                    spec.faults, [s.name for s in spec.sites]))
            name = "/".join([self.base.name] + [
                _axis_label(a, v) for a, v in zip(axes, combo)])
            spec = replace(spec, name=name,
                           seed=stable_hash((self.base.seed, name)))
            plan_storage(spec)  # validate now, with the cell's spec path
            out.append(spec)
        return out

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {"name": self.name, "base": self.base.as_dict(),
                "sweep": {a: list(v) for a, v in self.sweep.items()}}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, doc: Mapping, context: str = "matrix") -> "MatrixSpec":
        _reject_unknown(doc, {"name", "base", "sweep"}, context)
        base = ScenarioSpec.from_dict(doc.get("base", {}),
                                      context=f"{context}.base")
        sweep = doc.get("sweep", {})
        if not isinstance(sweep, Mapping):
            raise SpecError(f"{context}.sweep",
                            f"expected an object of axis: values, "
                            f"got {sweep!r}")
        return cls(base=base, sweep=sweep,
                   name=str(doc.get("name", "matrix")))

    @classmethod
    def from_json(cls, text: str, context: str = "matrix") -> "MatrixSpec":
        return cls.from_dict(json.loads(text), context=context)


# -- running -------------------------------------------------------------------


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Compile, build, provision, and run one scenario on a fresh kernel."""
    from ..sim.engine import Simulator
    sim = Simulator()
    with plan_storage(spec).build(sim) as built:
        return built.run()


def _run_cell(matrix_json: str, index: int) -> dict:
    """Module-level (hence picklable) worker: run matrix cell ``index``."""
    matrix = MatrixSpec.from_json(matrix_json)
    return run_scenario(matrix.expand()[index]).as_dict()


def run_matrix(matrix: MatrixSpec,
               max_workers: int | None = None) -> list[ScenarioResult]:
    """Run every cell of the sweep through ``run_replications``.

    The scenario index plays the runner's seed role; results come back in
    matrix order whatever the worker scheduling, so serial and parallel
    sweeps produce identical reports (and identical fingerprints).
    """
    worker = partial(_run_cell, matrix.to_json())
    rows = run_replications(worker, list(range(len(matrix))),
                            max_workers=max_workers)
    return [ScenarioResult(**row) for row in rows]


__all__ = ["MatrixSpec", "run_matrix", "run_scenario"]
