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

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Any, Mapping, Sequence

from ..faults.plan import FaultPlan
from ..sim.codec import Spec, decode, field_types
from ..sim.replications import run_replications
from ..sim.rng import stable_hash
from .planner import decode_campaign, plan_storage
from .scenario import ScenarioResult
from .spec import ClusterSpec, ScenarioSpec, SiteSpec, SpecError, WorkloadSpec

_CLUSTER_TYPES = field_types(ClusterSpec)
_WORKLOAD_TYPES = field_types(WorkloadSpec)
_SCENARIO_AXES = ("horizon_s", "site_backing", "selection", "reconcile",
                  "observability", "integrity", "scrub_passes", "profiler",
                  "faults")

#: Each axis's value type — that of the field it overrides — in canonical
#: expansion order: topology first, then cluster shape, then workload,
#: then campaign toggles, faults last — the order axes nest in scenario
#: names regardless of their order in the JSON document.
_AXIS_TYPES: dict[str, Any] = {
    "sites": int, **_CLUSTER_TYPES, **_WORKLOAD_TYPES,
    **{axis: field_types(ScenarioSpec)[axis] for axis in _SCENARIO_AXES}}


def _axis_label(axis: str, value: Any) -> str:
    if axis == "faults":
        return "faults=on" if value is not None else "faults=off"
    if isinstance(value, bool):
        return f"{axis}={'on' if value else 'off'}"
    return f"{axis}={value}"


def _apply_sites(spec: ScenarioSpec, count: int) -> ScenarioSpec:
    sites = list(spec.sites[:count])
    for i in range(len(sites), count):
        sites.append(SiteSpec(f"site{i}", position=(0.0, 500.0 * i)))
    names = {s.name for s in sites}
    links = tuple(l for l in spec.links if l.a in names and l.b in names)
    return replace(spec, sites=tuple(sites), links=links)


def _rewrite_fault_targets(doc: Mapping,
                           site_names: list[str]) -> FaultPlan:
    """Resolve ``@``-templated targets against the expanded topology."""
    plan = decode_campaign(doc)
    faults = []
    for fault in plan:
        target = fault.target
        if target.startswith("@"):
            target = target[1:]
            if len(site_names) == 1:
                for name in site_names + ["site0"]:
                    if target.startswith(name + "."):
                        target = target[len(name) + 1:]
                        break
        faults.append(replace(fault, target=target))
    return replace(plan, faults=faults)


def _apply_axis(spec: ScenarioSpec, axis: str, value: Any) -> ScenarioSpec:
    if axis == "sites":
        return _apply_sites(spec, value)
    if axis in _CLUSTER_TYPES:
        return replace(spec, cluster=replace(spec.cluster, **{axis: value}))
    if axis in _WORKLOAD_TYPES:
        return replace(spec, workload=replace(spec.workload, **{axis: value}))
    return replace(spec, **{axis: value})


@dataclass
class MatrixSpec(Spec, context="matrix"):
    """A sweep over scenario axes, expanding into concrete scenarios.

    ``sweep`` maps axis → list of values; each value is decoded as the
    field its axis overrides, so a bad value fails here, not mid-sweep.
    """

    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    sweep: Mapping = field(default_factory=dict)
    name: str = "matrix"

    def __post_init__(self) -> None:
        for axis, values in self.sweep.items():
            if axis not in _AXIS_TYPES:
                raise SpecError(
                    f"sweep.{axis}",
                    f"unknown sweep axis; known axes: "
                    f"{', '.join(_AXIS_TYPES)}")
            if not isinstance(values, Sequence) or isinstance(values, str) \
                    or not values:
                raise SpecError(f"sweep.{axis}",
                                f"expected a non-empty list of values, "
                                f"got {values!r}")
        # Canonical axis order, not document order.
        self.sweep = {
            axis: [decode(tp, v, f"sweep.{axis}[{i}]")
                   for i, v in enumerate(self.sweep[axis])]
            for axis, tp in _AXIS_TYPES.items() if axis in self.sweep}
        for i, count in enumerate(self.sweep.get("sites", ())):
            if count < 1:
                raise SpecError(f"sweep.sites[{i}]",
                                f"site counts must be >= 1, got {count}")

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
