"""The declarative topology spec family: data that describes a scenario.

A spec is pure data — *what* to build, never *how* — in the planner idiom:
a :class:`ScenarioSpec` (topology + workload + campaigns) compiles through
:func:`repro.plan.planner.plan_storage` into an asserted :class:`~repro.
plan.planner.Plan`, and the plan builds the live system.  Every spec is a
frozen dataclass that round-trips losslessly through JSON (``to_json`` /
``from_json``, the shared :mod:`repro.sim.codec` rules: strict types, no
unknown or missing fields, every error a :class:`SpecError` naming its
path) and carries the seed, so a scenario file is a complete, replayable
experiment description.

The family:

* :class:`ClusterSpec` — the shape of one site's deployment: a sparse
  overlay over :class:`~repro.core.config.SystemConfig` (``None`` fields
  inherit), so per-site overrides compose with scenario-wide defaults;
* :class:`SiteSpec` — one data center: name, plane position (km), and an
  optional per-site :class:`ClusterSpec` override;
* :class:`LinkSpec` — one WAN conduit between two named sites;
* :class:`WorkloadSpec` — the closed-loop client fleet a scenario drives;
* :class:`ScenarioSpec` — the whole scenario: sites, links, workload,
  fault campaign, and the observability/integrity/scrub/profiler toggles;
* :class:`CacheBenchSpec` — the lightweight blades-over-aggregate-farm
  topology the cache experiments (E2/E3) sweep;
* :class:`MatrixSpec` (in :mod:`repro.plan.matrix`) — a sweep over
  scenario axes expanding into many concrete :class:`ScenarioSpec`\\ s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from ..core.config import SystemConfig
from ..sim.codec import Spec, SpecError
from ..sim.units import gbps, mib, us


@dataclass(frozen=True)
class ClusterSpec(Spec, context="cluster"):
    """A sparse overlay over :class:`SystemConfig`.

    Every field defaults to ``None`` — *inherit* — so a scenario-wide
    cluster default and a per-site override merge field-wise (site wins).
    Validation is deferred to :meth:`system_config`, which delegates to
    ``SystemConfig.__post_init__`` and therefore enforces exactly the
    constraints the built system would.
    """

    blade_count: int | None = None
    cache_bytes_per_blade: int | None = None
    fc_ports_per_blade: int | None = None
    fc_rate_gb: float | None = None
    replication: int | None = None
    disk_count: int | None = None
    disk_capacity: int | None = None
    data_per_stripe: int | None = None
    block_size: int | None = None
    security_hardened: bool | None = None
    scrub_rate: float | None = None

    def overrides(self) -> dict[str, Any]:
        """The explicitly-set fields, as ``dataclasses.replace`` kwargs."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    def merged(self, override: "ClusterSpec | None") -> "ClusterSpec":
        """Field-wise merge: ``override``'s set fields win over mine."""
        if override is None:
            return self
        return ClusterSpec(**{**self.overrides(), **override.overrides()})


@dataclass(frozen=True)
class SiteSpec(Spec, context="site"):
    """One data center: a name, a plane position in km, and optional
    per-site :class:`SystemConfig` overrides via ``cluster``."""

    name: str
    position: tuple[float, float] = (0.0, 0.0)
    cluster: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        object.__setattr__(self, "position",
                           (float(self.position[0]), float(self.position[1])))

    def system_config(self, base: SystemConfig) -> SystemConfig:
        """The resolved per-site config: ``base`` renamed to this site,
        with this site's cluster overrides applied.  Raises the plain
        ``SystemConfig`` ValueError on invalid combinations — the planner
        wraps it with the spec path."""
        overrides = self.cluster.overrides() if self.cluster else {}
        return dataclasses.replace(base, name=self.name, **overrides)


@dataclass(frozen=True)
class LinkSpec(Spec, context="link"):
    """One WAN conduit between two named sites (encrypted by default,
    matching :meth:`~repro.geo.metacenter.MetadataCenter.connect`)."""

    a: str
    b: str
    bandwidth: float = gbps(2.5)
    encrypted: bool = True

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"link endpoints must differ, got {self.a!r}")
        if self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be > 0, got {self.bandwidth}")


#: How a scenario's clients are modeled.
WORKLOAD_KINDS = ("closed", "fluid")


@dataclass(frozen=True)
class WorkloadSpec(Spec, context="workload"):
    """The client population a scenario drives to its horizon.

    ``kind="closed"`` (the default) spawns one generator process per
    client: each owns a file under ``path`` and loops write → read →
    think every ``period_s``, counting an iteration ok when both ops
    complete and failed when an injected fault surfaces.

    ``kind="fluid"`` models the whole per-site population as a
    :class:`~repro.workloads.aggregate.FluidStream` rate flow — the
    megascale form, valid for 10⁵–10⁷ ``clients`` per site, where only
    the fluid fields below apply and the planner requires
    ``site_backing="aggregate"`` (per-block system I/O at aggregated
    pulse volumes would defeat the point).

    ``geo_mode``/``geo_sites`` set the file replication policy in
    multi-site scenarios (ignored otherwise) for both kinds.

    Fluid fields (ignored for closed workloads):

    * ``ops_per_client_s`` — per-client sustained op rate;
    * ``read_fraction`` / ``hit_ratio`` — read share and cache-hit share
      (hits never touch the kernel);
    * ``pulse_s`` — fluid accounting quantum;
    * ``admit_ops_s`` — portal admission token-bucket rate per site
      (0 = unthrottled).
    """

    clients: int = 2
    op_bytes: int = mib(1)
    period_s: float = 60.0
    path: str = "/bench"
    geo_mode: str = "async"
    geo_sites: int = 1
    kind: str = "closed"
    ops_per_client_s: float = 0.02
    read_fraction: float = 0.7
    hit_ratio: float = 0.9
    pulse_s: float = 1.0
    admit_ops_s: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 0:
            raise ValueError(f"clients must be >= 0, got {self.clients}")
        if self.op_bytes <= 0:
            raise ValueError(f"op_bytes must be > 0, got {self.op_bytes}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if self.geo_mode not in ("none", "sync", "async"):
            raise ValueError(
                f"geo_mode must be none/sync/async, got {self.geo_mode!r}")
        if self.geo_sites < 0:
            raise ValueError(f"geo_sites must be >= 0, got {self.geo_sites}")
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}")
        if self.ops_per_client_s < 0:
            raise ValueError(
                f"ops_per_client_s must be >= 0, got {self.ops_per_client_s}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if not 0.0 <= self.hit_ratio <= 1.0:
            raise ValueError(
                f"hit_ratio must be in [0, 1], got {self.hit_ratio}")
        if self.pulse_s <= 0:
            raise ValueError(f"pulse_s must be > 0, got {self.pulse_s}")
        if self.admit_ops_s < 0:
            raise ValueError(
                f"admit_ops_s must be >= 0, got {self.admit_ops_s}")


#: How the sites of a multi-site scenario model their local storage.
SITE_BACKINGS = ("system", "aggregate")


@dataclass(frozen=True)
class ScenarioSpec(Spec, context="scenario"):
    """One complete, replayable scenario: topology × workload × campaigns.

    ``cluster`` holds scenario-wide :class:`SystemConfig` overrides;
    per-site :class:`SiteSpec.cluster` overlays win field-wise.  One site
    builds a single :class:`~repro.core.system.NetStorageSystem`; two or
    more build a :class:`~repro.geo.metacenter.MetadataCenter`
    (``site_backing="system"``) or a raw WAN of aggregate-storage sites
    with a :class:`~repro.geo.replication.GeoReplicator`
    (``site_backing="aggregate"``, the cheap E10-style geo model).

    ``faults`` is an inline :class:`~repro.faults.plan.FaultPlan`
    document (the ``{"seed": ..., "faults": [...]}`` shape its
    ``to_json`` emits); targets are validated against the planned
    topology at compile time.
    """

    name: str = "scenario"
    seed: int = 0
    horizon_s: float = 3600.0
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    sites: tuple[SiteSpec, ...] = (SiteSpec("site0"),)
    links: tuple[LinkSpec, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: Mapping | None = None
    site_backing: str = "system"
    #: Holder-choice policy for geo reads (``static | random | cost``).
    #: Defaults to ``static`` — the historical fibre-distance sort — so
    #: existing scenario fingerprints don't shift; opt into the
    #: history-driven cost model per scenario.
    selection: str = "static"
    #: Post-heal anti-entropy: start a :class:`~repro.geo.reconcile.
    #: ReconcileDaemon` over the scenario's replicator.  Off by default;
    #: the daemon is strictly event-driven, so a fault-free run with it
    #: on is fingerprint-identical to one without (the sweepable claim
    #: the partition benchmark gates).
    reconcile: bool = False
    observability: bool = False
    integrity: bool = False
    scrub_passes: int = 0
    profiler: bool = False
    #: Time-series sizing forwarded to :class:`~repro.obs.Observability`
    #: (fault campaigns evaluating multi-hour SLO burn windows pass e.g.
    #: ``series_interval_s=60``); ``tracing=False`` keeps the event log
    #: and series but skips span recording.
    series_interval_s: float = 1.0
    series_capacity: int = 720
    tracing: bool = True

    def __post_init__(self) -> None:
        # Accept lists (JSON) and a live FaultPlan (builder convenience);
        # normalize so equality and serialization are canonical.
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "links", tuple(self.links))
        faults = self.faults
        if faults is not None and not isinstance(faults, Mapping):
            # A FaultPlan (or anything exposing its as_dict contract).
            object.__setattr__(self, "faults", faults.as_dict())

    def site_names(self) -> list[str]:
        return [s.name for s in self.sites]


@dataclass(frozen=True)
class CacheBenchSpec(Spec, context="cache_bench"):
    """The lightweight cache-experiment topology: controller blades over
    an aggregate farm feed (finite bandwidth + positioning latency)
    instead of per-spindle detail — the shape E2/E3 sweep.

    Defaults are the era-appropriate costs ``benchmarks/_common.py``
    has always used: one controller core moves ~200 MB/s through
    firmware, 50 µs per I/O.
    """

    blade_count: int = 4
    cache_bytes: int = mib(16)
    cpu_cores: int = 2
    cpu_per_io: float = us(50)
    cpu_per_byte: float = 1.0 / 200e6
    replication: int = 2
    block_size: int = 64 * 1024
    farm_bandwidth: float = 1.2e9
    farm_latency: float = 0.008
    interconnect_per_blade: float = gbps(4)

    def __post_init__(self) -> None:
        if self.blade_count < 1:
            raise ValueError(
                f"blade_count must be >= 1, got {self.blade_count}")
        if not 1 <= self.replication <= self.blade_count:
            raise ValueError(
                f"replication {self.replication} must be in "
                f"[1, blade_count={self.blade_count}]")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {self.block_size}")
        if self.farm_bandwidth <= 0 or self.farm_latency < 0:
            raise ValueError("farm_bandwidth must be > 0 and "
                             "farm_latency >= 0")


__all__ = ["CacheBenchSpec", "ClusterSpec", "LinkSpec", "ScenarioSpec",
           "SiteSpec", "SpecError", "WorkloadSpec", "SITE_BACKINGS",
           "WORKLOAD_KINDS"]
