"""Benchmark units: each declared workload cut into independently timed runs.

A unit is one scenario, or one cache-bench stream, built and run on a
fresh kernel.  ``setup()`` covers spec -> plan -> build -> provision and
``run()`` the run call; the harness times the two apart and reads the
unit's :class:`Outcome` -- simulated results, counts and correctness
problems -- outside the timed region.

Unit seeds are ``stable_hash((seed, workload, unit))``, so the program
under test receives only the generated specs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from repro.cluster import ClusterMembership, LoadBalancer
from repro.obs import RatioSLO, ThresholdSLO
from repro.plan import (CacheBenchSpec, MatrixSpec, ScenarioSpec,
                        plan_cache_bench, plan_storage)
from repro.sim import RngStreams, Simulator, stable_hash
from repro.workloads import HotspotWorkload, ZipfKeyGenerator

#: Relative tolerance of the fluid conservation identity
#: admitted == completed + failed + in flight.
CONSERVATION_TOL = 1e-6


@dataclass
class Outcome:
    """What one unit run produced in simulated terms; no host time."""

    ok: int
    failed: int
    events: int
    fingerprint: str
    counts: dict[str, float]
    latencies: list[float]
    problems: list[str]


def _digest(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _stack_counts(clusters, blades, disks) -> dict[str, float]:
    """Public counters of the cache pools, controller blades and disks."""
    def total(name):
        return sum(c.metrics.counter(name).value for c in clusters)

    return {
        "cache.hits": total("read.local_hit") + total("read.remote_hit"),
        "cache.misses": total("read.miss"),
        "cache.destaged": total("destage.completed"),
        "blade.cpu_ops": sum(b.ios_processed for b in blades),
        "disk.ios": sum(d.ops for d in disks),
    }


def _make_slo(doc: dict):
    doc = dict(doc)
    kind = doc.pop("kind")
    if kind == "threshold":
        return ThresholdSLO(**doc)
    if kind == "ratio":
        return RatioSLO(**doc)
    raise ValueError(f"unknown SLO kind {kind!r}")


class ScenarioUnit:
    """One declared scenario; SLOs, when declared, are registered between
    build and provision, as the E12f campaign does."""

    def __init__(self, name: str, spec: ScenarioSpec, slos: tuple = (),
                 prime_levels: tuple = (), slo_period_s: float = 60.0) -> None:
        self.name = name
        self.spec = spec
        self.slos = tuple(slos)
        self.prime_levels = tuple(prime_levels)
        self.slo_period_s = slo_period_s

    @property
    def observability(self) -> bool:
        return self.spec.observability

    def without_obs(self) -> "ScenarioUnit":
        """The same unit with observability off and no SLOs."""
        return ScenarioUnit(self.name, replace(self.spec, observability=False))

    def setup(self):
        built = plan_storage(self.spec).build(Simulator())
        if self.slos:
            obs = built.obs
            # Prime level series at "healthy" so burn windows opening
            # before the first fault see good slots.
            for level in self.prime_levels:
                obs.series.level(level).record(0.0)
            for doc in self.slos:
                obs.add_slo(_make_slo(doc))
            obs.slo.start(period=self.slo_period_s)
        return built.provision()

    @staticmethod
    def run(built):
        return built.run()

    def outcome(self, built, result) -> Outcome:
        spec = self.spec
        problems = []
        if result.sim_time < spec.horizon_s:
            problems.append(f"stopped at t={result.sim_time}")
        if result.ok <= 0:
            problems.append("no client op completed")
        if spec.faults is None and result.failed:
            problems.append(f"{result.failed} failures without a campaign")
        latencies: list[float] = []
        for stream in built.streams:
            admitted = stream.ops_admitted
            accounted = (stream.ops_completed + stream.ops_failed
                         + stream.ops_inflight)
            if abs(admitted - accounted) > CONSERVATION_TOL * max(1.0,
                                                                  admitted):
                problems.append(
                    f"{stream.name}: fluid not conserved: admitted "
                    f"{admitted!r} vs accounted {accounted!r}")
            latencies.extend(stream.transfer_latency.samples().tolist())
        systems = built.all_systems()
        counts = _stack_counts(
            [s.cache for s in systems],
            [b for s in systems for b in s.cluster.blades.values()],
            [d for s in systems for d in s.disks])
        counts["faults.injected"] = (built.injector.applied
                                     if built.injector is not None else 0)
        counts["geo.wan_bytes"] = sum(
            v for k, v in result.metrics.items()
            if k.endswith("wan.replication_bytes"))
        counts["fluid.pulses"] = sum(s.pulses for s in built.streams)
        alerts = built.obs.slo.alert_log() if self.slos else []
        return Outcome(ok=result.ok, failed=result.failed,
                       events=result.events,
                       fingerprint=_digest([result.fingerprint, alerts]),
                       counts=counts, latencies=latencies, problems=problems)


@dataclass
class _HotspotRun:
    sim: Simulator
    bench: Any
    workload: HotspotWorkload


class HotspotUnit:
    """One open-loop Zipf read stream over the pooled cache: E3's pooled
    path, with the blade picked per request by the cluster balancer."""

    observability = False

    def __init__(self, name: str, seed: int, bench: CacheBenchSpec,
                 population: int, skew: float, arrival_rate: float,
                 duration_s: float) -> None:
        self.name = name
        self.seed = seed
        self.bench = bench
        self.population = population
        self.skew = skew
        self.arrival_rate = arrival_rate
        self.duration_s = duration_s

    def setup(self) -> _HotspotRun:
        sim = Simulator()
        bench = plan_cache_bench(self.bench).build(sim)
        balancer = LoadBalancer(ClusterMembership(sim, bench.blades))
        cluster = bench.cluster

        def issue(key):
            blade = balancer.pick()
            balancer.start(blade)
            done = cluster.read(blade, key)
            done.add_callback(lambda _ev: balancer.finish(blade))
            return done

        streams = RngStreams(self.seed)
        workload = HotspotWorkload(
            sim, ZipfKeyGenerator(self.population, self.skew,
                                  streams.fresh("keys")),
            issue, self.arrival_rate, self.duration_s,
            streams.fresh("arrivals"))
        return _HotspotRun(sim, bench, workload)

    @staticmethod
    def run(state: _HotspotRun) -> None:
        # Arrivals are scheduled in simulated time, so a slow host cannot
        # make the generator late: the bare drain loop runs them all.
        state.workload.run()
        state.sim.run()

    def outcome(self, state: _HotspotRun, _result) -> Outcome:
        w = state.workload
        problems = []
        if w.issued <= 0:
            problems.append("no request issued")
        if w.completed != w.issued or w.failures:
            problems.append(f"{w.completed} of {w.issued} requests completed, "
                            f"{w.failures} failed")
        counts = _stack_counts([state.bench.cluster], state.bench.blades, [])
        counts.update({"faults.injected": 0, "geo.wan_bytes": 0,
                       "fluid.pulses": 0})
        latencies = w.latency.samples().tolist()
        doc = {"issued": w.issued, "completed": w.completed,
               "failures": w.failures, "now": state.sim.now,
               "events": state.sim.events_processed,
               "latency": [w.latency.mean(), w.latency.min, w.latency.max],
               "counts": counts}
        return Outcome(ok=w.completed, failed=w.failures,
                       events=state.sim.events_processed,
                       fingerprint=_digest(doc), counts=counts,
                       latencies=latencies, problems=problems)


def make_units(doc: dict, seed: int, smoke: bool = False) -> list:
    """The units of one workload document, seeded from ``seed``.

    ``smoke`` keeps the first ``smoke.units`` units and shortens their
    horizon or stream duration to the document's ``smoke`` values.
    """
    workload = doc["name"]
    short = doc["smoke"] if smoke else {}

    def unit_seed(unit: str) -> int:
        return stable_hash((seed, workload, unit))

    def scenario(spec: ScenarioSpec, **slos) -> ScenarioUnit:
        spec = replace(spec, seed=unit_seed(spec.name))
        if "horizon_s" in short:
            spec = replace(spec, horizon_s=short["horizon_s"])
        return ScenarioUnit(spec.name, spec, **slos)

    kind = doc["kind"]
    if kind == "matrix":
        units = [scenario(s)
                 for s in MatrixSpec.from_dict(doc["matrix"]).expand()]
    elif kind == "scenario":
        base = ScenarioSpec.from_dict(doc["scenario"])
        units = [scenario(replace(base, name=f"{base.name}/{u}"),
                          slos=doc.get("slos", ()),
                          prime_levels=doc.get("prime_levels", ()),
                          slo_period_s=doc.get("slo_period_s", 60.0))
                 for u in doc["units"]]
    elif kind == "hotspot":
        bench = CacheBenchSpec.from_dict(doc["cache_bench"])
        duration = short.get("duration_s", doc["duration_s"])
        units = [HotspotUnit(u["name"], unit_seed(u["name"]), bench,
                             doc["population"], u["skew"],
                             doc["arrival_rate"], duration)
                 for u in doc["units"]]
    else:
        raise ValueError(f"workload {workload!r}: unknown kind {kind!r}")
    return units[:short["units"]] if smoke else units
