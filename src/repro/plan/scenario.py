"""Built scenarios: one entry point for construction, lifecycle, and runs.

:func:`build_scenario` realizes a :class:`~repro.plan.planner.Plan` on a
simulator and *asserts* the plan against what was actually constructed
(stripe geometry, cache capacity, per-site configs), so a plan can never
drift silently from the built system.  The resulting
:class:`BuiltScenario` then owns the post-build lifecycle that every
bench used to hand-wire in a different order.

The ordering contract ``provision()`` encodes
------------------------------------------------

1. **Observability and integrity are build-time**, not provision-time:
   they ride :class:`~repro.core.config.SystemConfig` flags, so every
   later step can rely on ``sim.obs`` / checksum stamping being live.
2. **Background services start first** (the write-back destager): faults
   and workloads must land on a serving system, not a half-started one.
3. **The kernel profiler attaches second** (and joins the management
   plane), so the fault campaign's own events are attributed.
4. **The fault campaign is bound and armed third**: targets must resolve
   against fully-constructed components, and arming schedules kernel
   events at absolute times — it must precede ``run()``, never follow it.
5. **Scrub starts last**: a scrub pass is only meaningful once the
   campaign's at-rest corruption is armed, and its disk reads perturb
   head positions, so byte-identical-trace scenarios simply leave
   ``scrub_passes`` at 0.

``provision()`` is idempotent and doubles as a context manager::

    with plan_storage(spec).build(sim) as scn:
        result = scn.run()

``run()`` drives the declared closed-loop workload to the horizon and
returns a :class:`ScenarioResult` whose ``fingerprint`` is a stable
digest of the outcome — equal specs and seeds produce equal
fingerprints, which is what the CI scenario-matrix gate compares across
Python versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.config import SystemConfig
from ..core.system import NetStorageSystem
from ..fs.policies import FilePolicy, ReplicationMode
from ..sim.faults import FAULT_EXCEPTIONS
from .backing import AggregateFarm
from .spec import ScenarioSpec, SiteSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..geo.metacenter import MetadataCenter
    from ..geo.replication import GeoReplicator
    from ..geo.site import Site
    from ..geo.wan import WanNetwork
    from ..obs import Observability
    from ..sim.engine import Simulator
    from .planner import CacheBenchPlan, Plan, SitePlan


class PlanDivergenceError(RuntimeError):
    """The built system disagrees with its plan — the planner's layout
    arithmetic and the real constructors have drifted apart."""


def _assert_site(site_plan: "SitePlan", system: NetStorageSystem) -> None:
    """The plan's derived geometry must match the constructed objects."""
    pool = system.pool
    checks = [
        ("stripe_count", site_plan.stripe_count, pool.stripe_count),
        ("stripe_width", site_plan.stripe_width, pool.data_per_stripe + 1),
        ("capacity_bytes", site_plan.capacity_bytes, pool.capacity),
        ("disks", len(site_plan.disks), len(pool.disks)),
        ("blades", len(site_plan.blades), len(system.cluster.blades)),
    ]
    blades = list(system.cluster.blades.values())
    if blades:
        built_blocks = max(1, blades[0].cache_bytes // system.config.block_size)
        checks.append(("cache_blocks_per_blade",
                       site_plan.cache_blocks_per_blade, built_blocks))
    for what, planned, built in checks:
        if planned != built:
            raise PlanDivergenceError(
                f"site {site_plan.name!r} {what}: planned {planned}, "
                f"built {built}")
    if site_plan.config != system.config:
        raise PlanDivergenceError(
            f"site {site_plan.name!r} config: planned {site_plan.config}, "
            f"built {system.config}")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run's outcome (picklable for parallel matrix sweeps)."""

    name: str
    seed: int
    ok: int
    failed: int
    sim_time: float
    events: int
    metrics: dict
    fingerprint: str

    def as_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed, "ok": self.ok,
                "failed": self.failed, "sim_time": self.sim_time,
                "events": self.events, "metrics": dict(self.metrics),
                "fingerprint": self.fingerprint}


class BuiltScenario:
    """A constructed scenario: systems + campaigns behind one lifecycle.

    Exactly one of these is set, by :attr:`kind`:

    * ``"system"`` — :attr:`system` (a full NetStorageSystem);
    * ``"geo"`` — :attr:`center` (a MetadataCenter; per-site systems in
      :attr:`systems`);
    * ``"wan"`` — :attr:`network` / :attr:`replicator` / :attr:`dr`
      (aggregate-storage sites, the cheap geo model).

    ``obs`` is the shared observability bundle (or ``None``), and after
    :meth:`provision`, ``injector`` carries the armed fault campaign and
    ``scrubbers`` any started scrub daemons.
    """

    def __init__(self, sim: "Simulator", plan: "Plan") -> None:
        self.sim = sim
        self.plan = plan
        self.spec: ScenarioSpec = plan.spec
        self.kind = plan.kind
        self.system: NetStorageSystem | None = None
        self.center: "MetadataCenter | None" = None
        self.systems: dict[str, NetStorageSystem] = {}
        self.network: "WanNetwork | None" = None
        self.replicator: "GeoReplicator | None" = None
        self.dr = None
        #: Post-heal anti-entropy daemon when ``spec.reconcile`` is set.
        self.reconciler = None
        self.obs: "Observability | None" = None
        self.injector: "FaultInjector | None" = None
        self.profiler = None
        self.scrubbers: list = []
        #: Live FluidStream per site after a fluid-workload ``run()``.
        self.streams: list = []
        self._provisioned = False

    # -- inspection ------------------------------------------------------------

    def site(self, name: str) -> "Site":
        """The live Site object for a planned site name (multi-site kinds)."""
        if self.network is None:
            raise KeyError(f"single-site scenario has no site {name!r}")
        return self.network.sites[name]

    def all_systems(self) -> list[NetStorageSystem]:
        if self.system is not None:
            return [self.system]
        return [self.systems[sp.name] for sp in self.plan.sites
                if sp.name in self.systems]

    # -- lifecycle -------------------------------------------------------------

    def provision(self, strict_faults: bool = True) -> "BuiltScenario":
        """Run the documented post-build ordering (see module docstring):
        start services → attach profiler → arm faults → start scrub.
        Idempotent; returns self so ``with built.provision():`` reads
        naturally."""
        if self._provisioned:
            return self
        self._provisioned = True
        spec = self.spec
        for system in self.all_systems():
            system.start()
        if spec.profiler:
            self.profiler = self.sim.attach_profiler()
            if self.obs is not None:
                self.obs.mgmt.attach("profiler", self.profiler)
        if self.plan.faults is not None:
            self.injector = self._attach_faults(strict_faults)
            if self.obs is not None:
                self.injector.register_health(self.obs.mgmt)
        if self.replicator is not None and self.obs is not None:
            self.replicator.register_health(self.obs.mgmt)
            self.replicator.leases.register_health(self.obs.mgmt)
        if spec.reconcile and self.kind in ("geo", "wan"):
            # Strictly event-driven: subscribes to WAN state transitions
            # and schedules nothing while the topology stays healthy, so
            # a fault-free run fingerprints identically with it on or off.
            if self.kind == "geo":
                self.reconciler = self.center.attach_reconciler()
            else:
                from ..geo.reconcile import ReconcileDaemon
                self.reconciler = ReconcileDaemon(
                    self.sim, self.network, self.replicator).start()
            if self.obs is not None:
                self.reconciler.register_health(self.obs.mgmt)
        if spec.scrub_passes:
            for system in self.all_systems():
                self.scrubbers.append(
                    system.start_scrub(passes=spec.scrub_passes))
        return self

    def _attach_faults(self, strict: bool) -> "FaultInjector":
        plan = self.plan.faults
        if self.kind == "system":
            return self.system.attach_faults(plan, strict=strict)
        if self.kind == "geo":
            return self.center.attach_faults(plan, strict=strict)
        from ..faults.injector import FaultInjector
        return FaultInjector(self.sim).bind_wan(
            self.network, self.dr).arm(plan, strict=strict)

    def __enter__(self) -> "BuiltScenario":
        return self.provision()

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    # -- the declared workload -------------------------------------------------

    def _geo_policy(self) -> FilePolicy:
        wl = self.spec.workload
        if wl.geo_mode == "none" or wl.geo_sites == 0:
            return FilePolicy()
        mode = (ReplicationMode.SYNC if wl.geo_mode == "sync"
                else ReplicationMode.ASYNC)
        return FilePolicy(replication_mode=mode,
                          replication_sites=wl.geo_sites)

    def run(self, horizon: float | None = None) -> ScenarioResult:
        """Provision if needed, drive the declared workload to the
        horizon, and summarize.  Closed-loop clients each loop write →
        read → think on their own file, counting an iteration ``ok`` when
        both ops complete and ``failed`` when an injected fault surfaces;
        fluid workloads delegate to :meth:`_run_fluid`."""
        self.provision()
        sim = self.sim
        spec = self.spec
        wl = spec.workload
        horizon = spec.horizon_s if horizon is None else horizon
        if wl.kind == "fluid":
            return self._run_fluid(horizon)
        counts = {"ok": 0, "failed": 0}
        names = [sp.name for sp in self.plan.sites]

        def spawn(io_fn):
            def client():
                while sim.now < horizon:
                    try:
                        yield from io_fn()
                        counts["ok"] += 1
                    except FAULT_EXCEPTIONS:
                        counts["failed"] += 1
                    yield sim.timeout(wl.period_s)
            sim.process(client(), name="plan.client")

        for c in range(wl.clients):
            path = f"{wl.path}/c{c}"
            if self.kind == "system":
                self.system.create(path)

                def io(path=path):
                    yield self.system.write(path, 0, wl.op_bytes)
                    yield self.system.read(path, 0, wl.op_bytes)
            elif self.kind == "geo":
                home = names[c % len(names)]
                at = names[(c + 1) % len(names)]
                self.center.create(path, home=home,
                                   policy=self._geo_policy())

                def io(path=path, at=at):
                    yield self.center.write(path, 0, wl.op_bytes)
                    yield self.center.read(path, 0, wl.op_bytes, at=at)
            else:
                home = self.network.sites[names[c % len(names)]]
                self.replicator.register(path, self._geo_policy(), home)

                def io(path=path):
                    yield self.replicator.write(path, wl.op_bytes)
            spawn(io)
        sim.run(until=horizon)
        metrics = self._metrics()
        return ScenarioResult(
            name=spec.name, seed=spec.seed, ok=counts["ok"],
            failed=counts["failed"], sim_time=sim.now,
            events=sim.events_processed, metrics=metrics,
            fingerprint=self._fingerprint(counts, metrics))

    def _run_fluid(self, horizon: float) -> ScenarioResult:
        """Drive one :class:`~repro.workloads.aggregate.FluidStream` per
        site: ``clients`` is the *per-site* population, so a 3-site
        scenario at clients=10⁶ models three million users on O(1) kernel
        events per pulse per site.  Reads always hit the local aggregate
        store; writes go through the GeoReplicator when the scenario
        declares replication (geo traffic at fluid volumes), else
        straight to the local store."""
        import random

        from ..sim.rng import stable_hash
        from ..workloads.aggregate import FluidStream

        sim = self.sim
        spec = self.spec
        wl = spec.workload
        names = [sp.name for sp in self.plan.sites]
        replicate = (len(names) > 1 and wl.geo_mode != "none"
                     and wl.geo_sites > 0)
        policy = self._geo_policy()
        streams: list[FluidStream] = []
        for name in names:
            site = self.network.sites[name]
            if replicate:
                path = f"{wl.path}/{name}"
                self.replicator.register(path, policy, site)
                write_sink = (lambda nbytes, p=path:
                              self.replicator.write(p, nbytes))
            else:
                write_sink = site.store_write
            rng = random.Random(stable_hash((spec.seed, "fluid", name)))
            streams.append(FluidStream(
                sim, name=name, clients=wl.clients,
                ops_per_client_s=wl.ops_per_client_s, op_bytes=wl.op_bytes,
                read_sink=site.store_read, write_sink=write_sink,
                read_fraction=wl.read_fraction, hit_ratio=wl.hit_ratio,
                pulse_s=wl.pulse_s,
                admit_ops_s=wl.admit_ops_s or None,
                arrival_cv=0.1, rng=rng).start(until=horizon))
        self.streams = streams
        sim.run(until=horizon)
        counts = {"ok": int(round(sum(s.ops_completed for s in streams))),
                  "failed": int(round(sum(s.ops_failed for s in streams)))}
        metrics = self._metrics()
        for s in streams:
            for key, value in s.summary().items():
                if key != "name":
                    metrics[f"{s.name}.fluid.{key}"] = value
        return ScenarioResult(
            name=spec.name, seed=spec.seed, ok=counts["ok"],
            failed=counts["failed"], sim_time=sim.now,
            events=sim.events_processed, metrics=metrics,
            fingerprint=self._fingerprint(counts, metrics))

    def _metrics(self) -> dict:
        if self.kind == "system":
            return dict(self.system.report())
        if self.kind == "geo":
            return dict(self.center.report())
        out: dict[str, float] = {
            "files": float(len(self.replicator.files)),
            "wan.replication_bytes": self.replicator.replication_bytes,
        }
        for name in sorted(self.network.sites):
            site = self.network.sites[name]
            out[f"{name}.bytes_read"] = float(site.bytes_read)
            out[f"{name}.bytes_written"] = float(site.bytes_written)
        if self.reconciler is not None:
            summary = self.reconciler.summary()
            # Keys appear only when reconciliation actually ran, keeping
            # fault-free fingerprints identical with the daemon on or off.
            if summary["sweeps"]:
                out["reconcile.sweeps"] = float(summary["sweeps"])
                out["reconcile.resynced_bytes"] = float(
                    summary["resynced_bytes"])
                out["reconcile.conflicts"] = float(summary["conflicts"])
        return out

    def _fingerprint(self, counts: dict, metrics: dict) -> str:
        """A stable digest of the run's outcome: same spec + seed ⇒ same
        fingerprint, on any machine and (per CI) any Python version."""
        doc = {"name": self.spec.name, "seed": self.spec.seed,
               "now": self.sim.now, "events": self.sim.events_processed,
               "ok": counts["ok"], "failed": counts["failed"],
               "metrics": metrics}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_scenario(sim: "Simulator", plan: "Plan") -> BuiltScenario:
    """Realize a plan: construct the topology and assert the layout."""
    spec = plan.spec
    built = BuiltScenario(sim, plan)
    if spec.observability:
        from ..obs import enable
        built.obs = enable(sim, tracing=spec.tracing,
                           series_interval=spec.series_interval_s,
                           series_capacity=spec.series_capacity)
    if plan.kind == "system":
        built.system = NetStorageSystem(sim, plan.sites[0].config)
        _assert_site(plan.sites[0], built.system)
    elif plan.kind == "geo":
        from ..geo.metacenter import MetadataCenter
        # The exact per-site resolution the planner used: scenario-wide
        # cluster overrides merged with each site's own, over a base
        # carrying the scenario seed and campaign toggles.
        merged_sites = [SiteSpec(s.name, s.position,
                                 spec.cluster.merged(s.cluster))
                        for s in spec.sites]
        base = SystemConfig(seed=spec.seed,
                            observability=spec.observability,
                            integrity=spec.integrity)
        built.center = MetadataCenter(sim, merged_sites, config=base,
                                      selection=spec.selection,
                                      selection_seed=spec.seed)
        built.systems = dict(built.center.systems)
        built.network = built.center.network
        built.replicator = built.center.replicator
        built.dr = built.center.dr
        for sp in plan.sites:
            _assert_site(sp, built.systems[sp.name])
        for lp in plan.links:
            built.center.connect(lp.a, lp.b, bandwidth=lp.bandwidth,
                                 encrypted=lp.encrypted)
    else:  # wan: aggregate-storage sites, the cheap geo model
        from ..geo.dr import DisasterRecoveryCoordinator
        from ..geo.replication import GeoReplicator
        from ..geo.site import Site
        from ..geo.wan import WanNetwork
        net = WanNetwork(sim)
        for sp in plan.sites:
            net.add_site(Site(sim, sp.name, sp.position))
        for lp in plan.links:
            net.connect(net.sites[lp.a], net.sites[lp.b],
                        bandwidth=lp.bandwidth, encrypted=lp.encrypted)
        built.network = net
        built.replicator = GeoReplicator(sim, net)
        built.dr = DisasterRecoveryCoordinator(sim, net, built.replicator)
    return built


# -- cache benches (E2/E3 shape) ----------------------------------------------


class BuiltCacheBench:
    """Blades + aggregate farm + coherent cache cluster, planner-built."""

    def __init__(self, sim: "Simulator", plan: "CacheBenchPlan",
                 blades: list, farm: AggregateFarm, cluster) -> None:
        self.sim = sim
        self.plan = plan
        self.blades = blades
        self.farm = farm
        self.cluster = cluster


def make_bench_blades(sim: "Simulator", plan: "CacheBenchPlan") -> list:
    """The planned controller blades (era-appropriate firmware costs)."""
    from ..hardware.blade import ControllerBlade
    spec = plan.spec
    return [ControllerBlade(sim, i, cache_bytes=spec.cache_bytes,
                            cpu_cores=spec.cpu_cores,
                            cpu_per_io=spec.cpu_per_io,
                            cpu_per_byte=spec.cpu_per_byte)
            for i in range(spec.blade_count)]


def build_cache_bench(sim: "Simulator", plan: "CacheBenchPlan",
                      farm: AggregateFarm | None = None) -> BuiltCacheBench:
    """Realize a cache-bench plan (asserting cache geometry)."""
    from ..cache.pool import CacheCluster
    spec = plan.spec
    blades = make_bench_blades(sim, plan)
    farm = farm or AggregateFarm(sim, bandwidth=spec.farm_bandwidth,
                                 latency=spec.farm_latency)
    cluster = CacheCluster(
        sim, blades, farm.read, farm.write, block_size=spec.block_size,
        replication=spec.replication,
        interconnect_bandwidth=plan.interconnect_bandwidth)
    built_blocks = cluster.caches[blades[0].blade_id].capacity
    if built_blocks != plan.cache_blocks_per_blade:
        raise PlanDivergenceError(
            f"cache blocks per blade: planned "
            f"{plan.cache_blocks_per_blade}, built {built_blocks}")
    return BuiltCacheBench(sim, plan, blades, farm, cluster)


__all__ = ["BuiltCacheBench", "BuiltScenario", "PlanDivergenceError",
           "ScenarioResult", "build_cache_bench", "build_scenario"]
