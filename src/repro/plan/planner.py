"""``plan_storage``: compile a spec into an asserted, inspectable plan.

The planner is the validation and layout stage between pure-data specs
(:mod:`repro.plan.spec`) and live simulation objects: it resolves every
per-site :class:`~repro.core.config.SystemConfig` (surfacing config
errors with the spec path that caused them), lays out blades, disks,
stripe geometry, cache capacity, and WAN links, validates every fault
target against the component names the topology will actually have, and
returns a :class:`Plan` — a value you can inspect, serialize, diff, and
finally :meth:`Plan.build` into a running system.

Derived geometry in the plan (stripe counts, capacities) is *asserted*
at build time against the constructed objects, so a plan can never
silently drift from what gets built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.config import SystemConfig
from ..faults.plan import FaultKind, FaultPlan, parse_partition_target
from ..geo.selection import SELECTION_POLICIES
from .spec import (SITE_BACKINGS, CacheBenchSpec, LinkSpec, ScenarioSpec,
                   SiteSpec, SpecError)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from .scenario import BuiltCacheBench, BuiltScenario

_CONFIG_FIELDS = {f.name for f in SystemConfig.__dataclass_fields__.values()}


def _config_error_path(site_index: int, message: str) -> str:
    """``sites[1].replication`` when the config error names a field."""
    first = message.split()[0] if message.split() else ""
    if first in _CONFIG_FIELDS:
        return f"sites[{site_index}].{first}"
    return f"sites[{site_index}]"


@dataclass(frozen=True)
class SitePlan:
    """The resolved layout of one site (inspectable, serializable)."""

    name: str
    position: tuple[float, float]
    backing: str                      # "system" | "aggregate"
    config: SystemConfig | None       # None for aggregate sites
    blades: tuple[str, ...] = ()
    disks: tuple[str, ...] = ()
    stripe_width: int = 0             # k data + 1 parity
    stripe_count: int = 0
    capacity_bytes: int = 0
    cache_blocks_per_blade: int = 0

    def as_dict(self) -> dict:
        doc = {"name": self.name, "position": list(self.position),
               "backing": self.backing}
        if self.config is not None:
            doc.update({
                "blades": list(self.blades), "disks": list(self.disks),
                "stripe_width": self.stripe_width,
                "stripe_count": self.stripe_count,
                "capacity_bytes": self.capacity_bytes,
                "cache_blocks_per_blade": self.cache_blocks_per_blade,
            })
        return doc


@dataclass(frozen=True)
class LinkPlan:
    """One resolved WAN conduit: endpoints, rate, fibre distance."""

    a: str
    b: str
    bandwidth: float
    encrypted: bool
    distance_km: float

    @property
    def name(self) -> str:
        return f"wan:{self.a}<->{self.b}"

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "bandwidth": self.bandwidth,
                "encrypted": self.encrypted, "distance_km": self.distance_km}


def _site_geometry(config: SystemConfig) -> dict:
    """Derived layout for one full-system site.

    Mirrors the construction arithmetic of :class:`~repro.raid.decluster.
    DeclusteredPool` and :class:`~repro.cache.pool.CacheCluster`;
    :meth:`Plan.build` asserts the built objects agree, so this cannot
    silently diverge from the real constructors.
    """
    width = config.data_per_stripe + 1
    slots_per_disk = config.disk_capacity // config.block_size
    usable_slots = int(config.disk_count * slots_per_disk * 0.8)
    stripe_count = usable_slots // width
    return {
        "blades": tuple(f"blade{i}" for i in range(config.blade_count)),
        "disks": tuple(f"{config.name}.farm.d{i}"
                       for i in range(config.disk_count)),
        "stripe_width": width,
        "stripe_count": stripe_count,
        "capacity_bytes": stripe_count * config.data_per_stripe
        * config.block_size,
        "cache_blocks_per_blade": max(
            1, config.cache_bytes_per_blade // config.block_size),
    }


@dataclass(frozen=True)
class Plan:
    """An asserted, inspectable compilation of one :class:`ScenarioSpec`.

    ``kind`` is the topology the build will produce:

    * ``"system"`` — one site, one full NetStorageSystem;
    * ``"geo"`` — ≥2 full per-site systems joined as a MetadataCenter;
    * ``"wan"`` — aggregate-storage sites on a WanNetwork with a
      GeoReplicator + DR coordinator (the cheap E10/E13a geo model;
      single-site only for fluid megascale workloads).
    """

    spec: ScenarioSpec
    kind: str
    sites: tuple[SitePlan, ...]
    links: tuple[LinkPlan, ...]
    faults: FaultPlan | None
    fault_targets: tuple[str, ...] = ()

    # -- inspection ------------------------------------------------------------

    def site(self, name: str) -> SitePlan:
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(f"no planned site named {name!r}")

    def describe(self) -> str:
        """A human-readable layout summary (what ``build`` will make)."""
        lines = [f"plan {self.spec.name!r}: kind={self.kind} "
                 f"seed={self.spec.seed} horizon={self.spec.horizon_s:g}s"]
        for sp in self.sites:
            if sp.config is None:
                lines.append(f"  site {sp.name} at {sp.position}: "
                             "aggregate storage model")
            else:
                lines.append(
                    f"  site {sp.name} at {sp.position}: "
                    f"{len(sp.blades)} blades x "
                    f"{sp.cache_blocks_per_blade} cache blocks, "
                    f"{len(sp.disks)} disks, {sp.stripe_count} stripes "
                    f"(width {sp.stripe_width}), "
                    f"{sp.capacity_bytes / 1e9:.2f} GB usable")
        for lp in self.links:
            lines.append(f"  link {lp.name}: {lp.bandwidth / 1e9:.3f} GB/s "
                         f"over {lp.distance_km:.0f} km"
                         + (" (encrypted)" if lp.encrypted else ""))
        n_faults = len(self.faults) if self.faults is not None else 0
        lines.append(f"  campaigns: faults={n_faults} "
                     f"scrub_passes={self.spec.scrub_passes} "
                     f"obs={self.spec.observability} "
                     f"integrity={self.spec.integrity} "
                     f"profiler={self.spec.profiler}")
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "kind": self.kind,
            "sites": [s.as_dict() for s in self.sites],
            "links": [l.as_dict() for l in self.links],
            "fault_targets": list(self.fault_targets),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str, context: str = "plan") -> "Plan":
        """Recompile the embedded spec and verify the stored layout still
        matches — a stale plan file (layout rules changed since it was
        written) is an error, not a silent rebuild."""
        doc = json.loads(text)
        spec = ScenarioSpec.from_dict(doc.get("spec", {}),
                                      context=f"{context}.spec")
        plan = plan_storage(spec)
        fresh = plan.as_dict()
        for key in ("kind", "sites", "links", "fault_targets"):
            if doc.get(key) != fresh[key]:
                raise SpecError(
                    f"{context}.{key}",
                    "stored plan does not match a fresh compilation of its "
                    "spec (stale plan file?)")
        return plan

    # -- realization -----------------------------------------------------------

    def build(self, sim: "Simulator") -> "BuiltScenario":
        """Construct the planned topology on ``sim`` (asserting the plan)
        and return the :class:`~repro.plan.scenario.BuiltScenario`."""
        from .scenario import build_scenario
        return build_scenario(sim, self)


def decode_campaign(doc: Mapping) -> FaultPlan:
    """A scenario's inline fault-plan document as a :class:`FaultPlan`.

    Errors in fault ``i`` read ``faults[i]...``, the scenario-relative
    path target errors use; errors in the document itself read ``faults``.
    """
    try:
        return FaultPlan.from_dict(doc, context="")
    except SpecError as exc:
        if exc.path:
            raise
        raise SpecError("faults", str(exc)) from None


def _resolve_faults(spec: ScenarioSpec, valid_targets: set[str],
                    site_names: set[str] | None = None) -> FaultPlan | None:
    """Validate the campaign; ``site_names`` non-None enables PARTITION
    targets (multi-site topologies only) and checks their group grammar
    plus site membership instead of inventory lookup."""
    if spec.faults is None:
        return None
    plan = decode_campaign(spec.faults)
    for i, fault in enumerate(plan):
        if fault.kind is FaultKind.PARTITION:
            if site_names is None:
                raise SpecError(
                    f"faults[{i}].target",
                    "partition faults need a multi-site topology "
                    "(a single-site scenario has no WAN to cut)")
            try:
                group_a, group_b = parse_partition_target(fault.target)
            except ValueError as exc:
                raise SpecError(f"faults[{i}].target", str(exc)) from None
            for name in group_a + group_b:
                if name not in site_names:
                    raise SpecError(
                        f"faults[{i}].target",
                        f"partition group names unknown site {name!r}; "
                        f"declared sites: {', '.join(sorted(site_names))}")
            continue
        if fault.target not in valid_targets:
            known = ", ".join(sorted(valid_targets))
            raise SpecError(
                f"faults[{i}].target",
                f"{fault.target!r} names no planned component; "
                f"planned targets: {known}")
    return plan


def plan_storage(spec: ScenarioSpec) -> Plan:
    """Compile and validate a :class:`ScenarioSpec` into a :class:`Plan`.

    Every validation failure raises :class:`SpecError` whose message
    starts with the spec path of the offending axis — including every
    ``ValueError`` that :class:`SystemConfig` itself would raise for a
    site's resolved configuration (``sites[1].replication: ...``).
    """
    if not spec.name:
        raise SpecError("name", "scenario name must be non-empty")
    if spec.horizon_s <= 0:
        raise SpecError("horizon_s",
                        f"horizon must be > 0, got {spec.horizon_s}")
    if spec.site_backing not in SITE_BACKINGS:
        raise SpecError("site_backing",
                        f"expected one of {SITE_BACKINGS}, "
                        f"got {spec.site_backing!r}")
    if spec.selection not in SELECTION_POLICIES:
        raise SpecError("selection",
                        f"expected one of {SELECTION_POLICIES}, "
                        f"got {spec.selection!r}")
    if not spec.sites:
        raise SpecError("sites", "need at least one site")
    names = spec.site_names()
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise SpecError("sites", f"duplicate site name(s): {sorted(dupes)}")

    multi = len(spec.sites) > 1
    aggregate = spec.site_backing == "aggregate"
    fluid = spec.workload.kind == "fluid"
    if fluid and not aggregate:
        raise SpecError(
            "workload.kind",
            "fluid workloads aggregate 10⁵+ clients into rate flows; they "
            'require site_backing="aggregate" (per-block system I/O at '
            "aggregated pulse volumes defeats the point)")
    if aggregate and not multi and not fluid:
        raise SpecError("site_backing",
                        "aggregate backing models a WAN of sites; a "
                        "single-site closed-loop scenario builds a full "
                        "system (single-site aggregate is reserved for "
                        'workload kind="fluid")')
    if aggregate and (spec.integrity or spec.scrub_passes):
        raise SpecError("integrity" if spec.integrity else "scrub_passes",
                        "aggregate sites have no disks to checksum; use "
                        'site_backing="system"')
    if spec.scrub_passes < 0:
        raise SpecError("scrub_passes",
                        f"must be >= 0, got {spec.scrub_passes}")
    if spec.scrub_passes and not spec.integrity:
        raise SpecError("scrub_passes",
                        "scrubbing requires integrity=true (checksums are "
                        "what a scrub verifies)")

    kind = "wan" if aggregate else ("geo" if multi else "system")

    # -- per-site configs + layout --------------------------------------------
    site_plans: list[SitePlan] = []
    for i, site in enumerate(spec.sites):
        if aggregate:
            site_plans.append(SitePlan(site.name, site.position,
                                       "aggregate", None))
            continue
        merged = spec.cluster.merged(site.cluster)
        try:
            config = SiteSpec(site.name, site.position, merged).system_config(
                SystemConfig(seed=spec.seed,
                             observability=spec.observability,
                             integrity=spec.integrity))
        except (ValueError, TypeError) as exc:
            raise SpecError(_config_error_path(i, str(exc)),
                            str(exc)) from None
        geom = _site_geometry(config)
        site_plans.append(SitePlan(site.name, site.position, "system",
                                   config, **geom))

    # -- WAN links -------------------------------------------------------------
    link_specs: tuple[LinkSpec, ...] = spec.links
    if multi and not link_specs:
        # Default topology: a full mesh in declaration order.
        link_specs = tuple(LinkSpec(a=names[i], b=names[j])
                           for i in range(len(names))
                           for j in range(i + 1, len(names)))
    by_name = {s.name: s for s in spec.sites}
    link_plans: list[LinkPlan] = []
    seen_pairs: set[frozenset] = set()
    for i, link in enumerate(link_specs):
        for end, label in ((link.a, "a"), (link.b, "b")):
            if end not in by_name:
                raise SpecError(f"links[{i}].{label}",
                                f"{end!r} names no declared site "
                                f"(sites: {', '.join(names)})")
        if not multi:
            raise SpecError(f"links[{i}]",
                            "a single-site scenario has no WAN to link")
        pair = frozenset((link.a, link.b))
        if pair in seen_pairs:
            raise SpecError(f"links[{i}]",
                            f"duplicate link between {link.a!r} and "
                            f"{link.b!r}")
        seen_pairs.add(pair)
        sa, sb = by_name[link.a], by_name[link.b]
        dx = sa.position[0] - sb.position[0]
        dy = sa.position[1] - sb.position[1]
        link_plans.append(LinkPlan(link.a, link.b, link.bandwidth,
                                   link.encrypted,
                                   distance_km=(dx * dx + dy * dy) ** 0.5))

    # -- fault-target inventory ------------------------------------------------
    targets: set[str] = set()
    if kind == "system":
        sp = site_plans[0]
        targets.update(sp.blades)
        targets.update(f"disk{i}" for i in range(len(sp.disks)))
        targets.add("cache")
    else:
        targets.update(names)                       # SITE_LOSS
        targets.update(lp.name for lp in link_plans)  # LINK_FLAP
        if kind == "geo":
            for sp in site_plans:
                targets.update(f"{sp.name}.{b}" for b in sp.blades)
                targets.update(f"{sp.name}.disk{i}"
                               for i in range(len(sp.disks)))
                targets.add(f"{sp.name}.cache")
    faults = _resolve_faults(spec, targets,
                             site_names=set(names) if multi else None)

    return Plan(spec=spec, kind=kind, sites=tuple(site_plans),
                links=tuple(link_plans), faults=faults,
                fault_targets=tuple(sorted(targets)))


# -- the cache-bench planner (E2/E3 shape) ------------------------------------


@dataclass(frozen=True)
class CacheBenchPlan:
    """The resolved blades-over-aggregate-farm layout for one cache bench."""

    spec: CacheBenchSpec
    blades: tuple[str, ...]
    cache_blocks_per_blade: int
    interconnect_bandwidth: float

    def build(self, sim: "Simulator", farm=None) -> "BuiltCacheBench":
        """Blades + farm feed + coherent cache cluster, in one call.
        ``farm`` overrides the planned aggregate feed (shared-farm
        experiments pass one feed to several clusters)."""
        from .scenario import build_cache_bench
        return build_cache_bench(sim, self, farm=farm)


def plan_cache_bench(spec: CacheBenchSpec) -> CacheBenchPlan:
    """Compile the lightweight cache-experiment topology."""
    return CacheBenchPlan(
        spec=spec,
        blades=tuple(f"blade{i}" for i in range(spec.blade_count)),
        cache_blocks_per_blade=max(1, spec.cache_bytes // spec.block_size),
        interconnect_bandwidth=spec.interconnect_per_blade
        * spec.blade_count)


__all__ = ["CacheBenchPlan", "LinkPlan", "Plan", "SitePlan",
           "plan_cache_bench", "plan_storage"]
