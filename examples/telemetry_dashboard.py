#!/usr/bin/env python
"""Telemetry dashboard: the continuous-operation view of a seeded run.

Stands up the paper's 4-blade system with the full telemetry pipeline
live — labeled time series, SLO burn-rate alerting, the structured event
log, and the kernel self-profiler — drives a bench_e02-style multi-client
workload through a mid-run blade crash, and renders the single pane of
glass an operator would watch: `Observability.format_dashboard()`.

Everything below runs on simulated time from one seed, so the dashboard
(except the profiler's sampled wall-clock column) is identical on every
run.

Run:  python examples/telemetry_dashboard.py
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import FaultKind, FaultPlan, NetStorageSystem, Simulator, SystemConfig
from repro.obs import RatioSLO, Severity, ThresholdSLO, enable
from repro.sim.units import mib

HORIZON = 300.0          # five simulated minutes
CRASH_AT, CRASH_FOR = 100.0, 60.0

sim = Simulator()
# The kernel self-profile is not free: the profiler observes every
# dispatched event, a per-event cost on top of the run.
sim.attach_profiler()

# Attach observability before building the system: every component binds
# its series handles when it is constructed.  1 s series intervals suit a
# minutes-scale run; WARNING+ keeps the event ring focused on incidents
# instead of letting per-op DEBUG chatter evict the alert records this
# demo wants to show.
obs = enable(sim, min_severity=Severity.WARNING)
system = NetStorageSystem(sim, SystemConfig(
    blade_count=4, disk_count=16, disk_capacity=mib(512), seed=7,
    observability=True))

# Promises, declared over the labeled series the stack emits (the burn
# windows clamp to the start of the run, so a five-minute demo still
# pages when a whole blade drops).
obs.series.level("cluster.blades_down").record(0.0)
obs.add_slo(ThresholdSLO("blades-up", 0.999,
                         series="cluster.blades_down", bound=0.0,
                         stat="max", description="every blade serving"))
obs.add_slo(RatioSLO("client-availability", 0.999,
                     good="client.ops_ok", bad="client.ops_failed",
                     description="client op success ratio"))
obs.slo.start(period=10.0)

system.start()
for i in range(4):
    system.create(f"/jobs/dataset{i}.h5")

# One blade dies for a minute mid-run; the cluster reroutes around it.
system.attach_faults(FaultPlan().add(CRASH_AT, FaultKind.BLADE_CRASH,
                                     "blade2", duration=CRASH_FOR))


def client(i):
    path = f"/jobs/dataset{i % 4}.h5"
    while sim.now < HORIZON:
        yield system.write(path, 0, mib(1))
        yield system.read(path, 0, mib(1))
        yield sim.timeout(1.0)


for i in range(8):
    sim.process(client(i), name=f"client{i}")
sim.run(until=HORIZON)

# -- the single pane of glass ------------------------------------------------
print(obs.format_dashboard(max_series=24))

# -- the alert stream, as the on-call would grep it --------------------------
print()
print("SLO alert stream (JSONL excerpt of the structured event log):")
for line in obs.log.to_jsonl(kind="slo.burn_rate").splitlines():
    print(" ", line)

# -- the same data, scrape-shaped --------------------------------------------
prom = obs.mgmt.to_prometheus()
slo_lines = [ln for ln in prom.splitlines() if "slo_" in ln]
print()
print("Prometheus exposition (SLO families):")
for line in slo_lines:
    print(" ", line)
