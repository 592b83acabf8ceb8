"""The fault injector: binds a :class:`FaultPlan` to live components.

The plan names *targets* ("blade0", "disk3", "wan:east<->west",
"east.cache"); the injector owns the mapping from those names to model
objects and schedules every spec as a kernel event via ``sim.call_at`` —
faults are ordinary simulation events, so a campaign is exactly as
deterministic as the rest of the run.  Each bound target also gets a
:class:`~repro.faults.state.RecoveryTracker`, so the injector doubles as
the bookkeeper for MTTR/availability that experiment E12 sweeps.

Convenience binders cover the common shapes (``bind_system`` for a
single-site :class:`~repro.core.system.NetStorageSystem`,
``bind_metacenter`` for a multi-site deployment); ``register`` takes any
``(kind, target) -> apply/clear`` pair for bespoke wiring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .plan import FaultKind, FaultPlan, FaultSpec, parse_partition_target
from .state import RecoveryTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..core.system import NetStorageSystem
    from ..geo.metacenter import MetadataCenter
    from ..obs.telemetry import ManagementPlane
    from ..sim.engine import Simulator

ApplyFn = Callable[[FaultSpec], None]


class FaultInjector:
    """Applies a fault plan to bound components at scheduled times."""

    def __init__(self, sim: "Simulator", name: str = "faults.injector") -> None:
        self.sim = sim
        self.name = name
        self._bindings: dict[tuple[FaultKind, str],
                             tuple[ApplyFn, ApplyFn | None]] = {}
        self.trackers: dict[str, RecoveryTracker] = {}
        #: (time, action, kind, target) applied/cleared record, in order.
        self.timeline: list[tuple[float, str, str, str]] = []
        self.armed = 0
        self.applied = 0
        self.cleared = 0
        self.skipped = 0
        #: Overlap-safe outage composition: several concurrent faults may
        #: hold the same link or site down (LINK_FLAP + PARTITION on one
        #: fibre, overlapping SITE_LOSS specs).  The object goes down on
        #: the first hold and back up only when the LAST hold releases —
        #: an inner fault's clear must never resurrect a target an outer
        #: fault still claims.
        self._holds: dict = {}
        #: Network for lazily-bound PARTITION targets (bind_partitions).
        self._partition_network = None

    # -- binding ---------------------------------------------------------------

    def tracker(self, target: str) -> RecoveryTracker:
        """The recovery state machine for a target (created on first use)."""
        tr = self.trackers.get(target)
        if tr is None:
            tr = RecoveryTracker(self.sim, target)
            self.trackers[target] = tr
        return tr

    # -- hold counting ---------------------------------------------------------

    def _hold(self, target, on_loss: Callable[[], object] | None = None
              ) -> None:
        """Take one hold on a link or site; the first one takes it down
        (through ``on_loss`` when given, else ``target.fail()``)."""
        count = self._holds.get(target, 0)
        self._holds[target] = count + 1
        if count == 0:
            (on_loss or target.fail)()

    def _release(self, target) -> None:
        """Drop one hold; the last one repairs the target."""
        count = self._holds.get(target, 0)
        if count <= 0:
            return
        if count == 1:
            del self._holds[target]
            target.repair()
        else:
            self._holds[target] = count - 1

    def register(self, kind: FaultKind | str, target: str, apply: ApplyFn,
                 clear: ApplyFn | None = None) -> None:
        """Bind one ``(kind, target)`` pair to apply/clear callables.

        ``clear`` runs ``duration`` after ``apply`` for specs with a
        repair window; a binding without ``clear`` makes every fault of
        this kind permanent regardless of duration.
        """
        self._bindings[(FaultKind(kind), target)] = (apply, clear)

    def bind_blade(self, blade, target: str | None = None) -> None:
        """Blade crash (cache contents lost) and slow-node gray failure."""
        target = target or blade.name
        tr = self.tracker(target)

        def crash(spec: FaultSpec) -> None:
            tr.fail("blade crash")
            blade.fail()

        def replace(spec: FaultSpec) -> None:
            blade.repair()
            tr.begin_recovery("blade replaced")
            tr.recovered("rejoined with cold cache")

        def slow(spec: FaultSpec) -> None:
            blade.set_slow(max(spec.severity, 1.0))
            tr.degrade(f"slow x{max(spec.severity, 1.0):g}")

        def unslow(spec: FaultSpec) -> None:
            blade.clear_slow()
            tr.recovered("nominal latency restored")

        self.register(FaultKind.BLADE_CRASH, target, crash, replace)
        self.register(FaultKind.SLOW_NODE, target, slow, unslow)

    def bind_link(self, link, target: str | None = None) -> None:
        """Link flap: new transfers fail while down; repair restores.

        Down/up go through the injector's hold counts, so a flap
        overlapping a PARTITION (or another flap) on the same fibre
        repairs the link only when the *last* concurrent fault clears.
        """
        target = target or link.name
        tr = self.tracker(target)

        def down(spec: FaultSpec) -> None:
            tr.fail("link down")
            self._hold(link)

        def up(spec: FaultSpec) -> None:
            self._release(link)
            if not link.failed:
                tr.recovered("link restored")

        self.register(FaultKind.LINK_FLAP, target, down, up)

    def bind_site(self, site, target: str | None = None,
                  on_loss: Callable[[], object] | None = None) -> None:
        """Whole-site disaster.  ``on_loss`` overrides the raw ``site.fail``
        (e.g. a DR coordinator's ``fail_site``, which also runs failover)."""
        target = target or site.name
        tr = self.tracker(target)

        def lose(spec: FaultSpec) -> None:
            tr.fail("site disaster")
            self._hold(site, on_loss)

        def restore(spec: FaultSpec) -> None:
            # Release this fault's hold; the site only actually repairs
            # (and the outage only closes) when no overlapping SITE_LOSS
            # still claims it — an inner spec's clear must not resurrect
            # a site an outer, longer outage has down.
            self._release(site)
            if not site.failed:
                tr.begin_recovery("site power restored")
                tr.recovered("site back online")

        self.register(FaultKind.SITE_LOSS, target, lose, restore)

    def bind_transient_io(self, target: str,
                          inject: Callable[[int], None]) -> None:
        """One-shot I/O error bursts: ``severity`` = consecutive failures."""

        def burst(spec: FaultSpec) -> None:
            inject(max(1, int(spec.severity)))

        self.register(FaultKind.TRANSIENT_IO, target, burst)

    def bind_partitions(self, network) -> "FaultInjector":
        """Enable PARTITION faults against a :class:`WanNetwork`.

        Partition targets name site *groups* (``"a,b|c"``), so concrete
        bindings are created lazily at :meth:`arm` time from whatever
        group expressions the plan actually uses.
        """
        self._partition_network = network
        return self

    def _bind_partition(self, target: str) -> None:
        """Bind one partition expression: cut every link crossing the
        declared groups, bidirectionally, for the fault's duration."""
        group_a, group_b = parse_partition_target(target)
        net = self._partition_network
        for name in group_a + group_b:
            if name not in net.sites:
                raise ValueError(
                    f"partition target {target!r} names unknown site "
                    f"{name!r}; known: {sorted(net.sites)}")
        a_set, b_set = set(group_a), set(group_b)
        tr = self.tracker(f"partition:{target}")
        #: One entry per concurrently-applied cut of this expression —
        #: heal releases the oldest batch, so overlapping hand-built
        #: specs compose with the same hold semantics as links/sites.
        batches: list[list] = []

        def cut(spec: FaultSpec) -> None:
            crossing = []
            for u, v, link in net.links():
                if (u in a_set and v in b_set) \
                        or (u in b_set and v in a_set):
                    crossing.append(link)
                    self._hold(link)
            batches.append(crossing)
            tr.fail("wan partition")

        def heal(spec: FaultSpec) -> None:
            if not batches:
                return
            for link in batches.pop(0):
                self._release(link)
            if not batches:
                tr.recovered("partition healed")

        self.register(FaultKind.PARTITION, target, cut, heal)

    # -- whole-deployment binders ----------------------------------------------

    def bind_system(self, system: "NetStorageSystem",
                    prefix: str = "") -> "FaultInjector":
        """Bind every blade, disk, and the cache of one deployment.

        Targets: ``{prefix}blade{i}`` (crash + slow-node),
        ``{prefix}disk{i}`` (fail + distributed rebuild), and
        ``{prefix}cache`` (transient backing-I/O bursts).
        """
        for blade in sorted(system.cluster.blades.values(),
                            key=lambda b: b.blade_id):
            self.bind_blade(blade, target=prefix + blade.name)
        for index in range(len(system.pool.disks)):
            self._bind_system_disk(system, index, prefix)
        self.bind_transient_io(prefix + "cache",
                               system.cache.inject_backing_faults)
        if getattr(system, "integrity", None) is not None:
            self._bind_system_corruption(system, prefix)
        return self

    _AT_REST_KINDS = (FaultKind.BITROT, FaultKind.TORN_WRITE,
                      FaultKind.MISDIRECTED_WRITE)

    def _bind_system_corruption(self, system: "NetStorageSystem",
                                prefix: str) -> None:
        """Corruption hooks, bound only when integrity is enabled: at-rest
        kinds land on ``{prefix}disk{i}``, wire damage on ``{prefix}cache``
        (the next remote-hit fills deliver a bad payload)."""
        for index in range(len(system.pool.disks)):
            target = f"{prefix}disk{index}"
            for kind in self._AT_REST_KINDS:
                def at_rest(spec: FaultSpec, i=index, k=kind) -> None:
                    system.inject_at_rest_corruption(
                        i, k.value, count=max(1, int(spec.severity)),
                        salt=int(spec.at * 1e6))
                self.register(kind, target, at_rest)

        def wire(spec: FaultSpec) -> None:
            system.cache.corrupt_next_fill(max(1, int(spec.severity)))

        self.register(FaultKind.WIRE_CORRUPT, prefix + "cache", wire)

    def _bind_system_disk(self, system: "NetStorageSystem", index: int,
                          prefix: str) -> None:
        target = f"{prefix}disk{index}"
        tr = self.tracker(target)

        def fail_disk(spec: FaultSpec) -> None:
            if index in system.pool.failed:
                return  # already dead; nothing more to break
            tr.fail("disk failure")
            job = system.fail_disk_and_rebuild(index)
            # The declustered pool keeps serving through reconstruction,
            # so the outage closes as soon as the rebuild is running; the
            # RECOVERING window then measures rebuild time.
            tr.begin_recovery("declustered rebuild running")
            job.on_done(lambda: tr.recovered("rebuild complete"))

        self.register(FaultKind.DISK_FAIL, target, fail_disk)

    def bind_wan(self, network, dr) -> "FaultInjector":
        """Bind every site of a :class:`WanNetwork` (loss runs ``dr``'s
        coordinated ``fail_site``), every WAN link under its own name,
        and PARTITION faults across the network."""
        for name in sorted(network.sites):
            site = network.sites[name]
            self.bind_site(site, on_loss=lambda s=site: dr.fail_site(s))
        for _u, _v, link in network.links():
            self.bind_link(link)
        return self.bind_partitions(network)

    def bind_metacenter(self, mc: "MetadataCenter") -> "FaultInjector":
        """:meth:`bind_wan` over a metadata center's network, plus every
        per-site system, its targets prefixed with the site name
        (``east.blade0``)."""
        self.bind_wan(mc.network, mc.dr)
        for name in sorted(mc.systems):
            self.bind_system(mc.systems[name], prefix=f"{name}.")
        return self

    # -- arming ----------------------------------------------------------------

    def arm(self, plan: FaultPlan, strict: bool = True) -> "FaultInjector":
        """Schedule every spec of ``plan`` as kernel events.

        ``strict`` raises on a spec whose ``(kind, target)`` has no
        binding; otherwise such specs are counted in ``skipped`` and
        logged, so stochastic plans can over-generate harmlessly.
        """
        for spec in plan:
            binding = self._bindings.get((spec.kind, spec.target))
            if binding is None and spec.kind is FaultKind.PARTITION \
                    and self._partition_network is not None:
                # Partition targets are group expressions, unknowable at
                # bind time: materialize the binding on first use.
                self._bind_partition(spec.target)
                binding = self._bindings[(spec.kind, spec.target)]
            if binding is None:
                if strict:
                    raise KeyError(
                        f"no binding for {spec.kind.value} on "
                        f"{spec.target!r}; register() or bind_*() it first")
                self.skipped += 1
                if self.sim.obs is not None:
                    self.sim.obs.log.warning(self.name, "fault_unbound",
                                             fault=spec.kind.value,
                                             target=spec.target)
                continue
            self.sim.call_at(spec.at, lambda s=spec: self._apply(s))
            if spec.duration > 0 and binding[1] is not None:
                self.sim.call_at(spec.at + spec.duration,
                                 lambda s=spec: self._clear(s))
            self.armed += 1
        return self

    def _apply(self, spec: FaultSpec) -> None:
        apply_fn, _clear_fn = self._bindings[(spec.kind, spec.target)]
        self.applied += 1
        self.timeline.append((self.sim.now, "apply", spec.kind.value,
                              spec.target))
        if self.sim.obs is not None:
            self.sim.obs.log.warning(self.name, "fault_injected",
                                     fault=spec.kind.value,
                                     target=spec.target,
                                     duration=spec.duration,
                                     magnitude=spec.severity)
        apply_fn(spec)

    def _clear(self, spec: FaultSpec) -> None:
        _apply_fn, clear_fn = self._bindings[(spec.kind, spec.target)]
        self.cleared += 1
        self.timeline.append((self.sim.now, "clear", spec.kind.value,
                              spec.target))
        if self.sim.obs is not None:
            self.sim.obs.log.info(self.name, "fault_cleared",
                                  fault=spec.kind.value, target=spec.target)
        clear_fn(spec)

    # -- measurement -----------------------------------------------------------

    def availability(self) -> float:
        """Worst per-target availability (1.0 with no tracked targets)."""
        if not self.trackers:
            return 1.0
        return min(tr.availability() for tr in self.trackers.values())

    def mttr(self) -> float:
        """Mean repair time over every closed outage on every target."""
        repairs = [t for tr in self.trackers.values()
                   for t in tr.repair_times]
        if not repairs:
            return 0.0
        return sum(repairs) / len(repairs)

    def summary(self) -> dict[str, float]:
        """Campaign roll-up for experiment tables."""
        return {
            "faults_armed": float(self.armed),
            "faults_applied": float(self.applied),
            "faults_cleared": float(self.cleared),
            "faults_skipped": float(self.skipped),
            "failures": float(sum(tr.failures
                                  for tr in self.trackers.values())),
            "mttr_s": self.mttr(),
            "worst_availability": self.availability(),
        }

    # -- management plane ------------------------------------------------------

    def health(self):
        from ..obs.telemetry import ComponentHealth, HealthState
        return ComponentHealth(self.name, HealthState.UP,
                               metrics=self.summary(),
                               detail=f"{self.applied}/{self.armed} applied")

    def register_health(self, mgmt: "ManagementPlane") -> None:
        """Register the injector roll-up and every target's tracker."""
        mgmt.register(self.name, self.health)
        for target in sorted(self.trackers):
            self.trackers[target].register_health(mgmt)
