#!/usr/bin/env python
"""Megascale site: a million clients per site as declared fluid flows.

The paper's shared infrastructure served a whole national lab through
its storage portals; this example scales that population out to
megascale — 1,250,000 modeled clients *per site* — and runs it end to
end from one declared scenario:

  1. a two-site WAN of aggregate-storage sites with async replication,
     compiled through ``repro.plan`` like any other scenario;
  2. a ``kind="fluid"`` workload: the population enters the kernel only
     at the contention points (portal admission token bucket, cache
     misses against the backing store, WAN link grants), so 45 million
     modeled ops cost ~250k kernel events — about 200× fewer than one
     event per op, and independent of the population size;
  3. a site disaster striking mid-run — the open-loop population keeps
     offering load, ops fail during the outage, and the stream recovers
     when the site does;
  4. the kernel self-profile: the event queue a 2.5-million-client run
     leaves pending stays tiny, because the population lives in rate
     flows, not in timers;
  5. the telemetry dashboard over the whole thing.

Everything is simulated time from one seed: the fingerprint is
identical on every run and every machine.

Run:  python examples/megascale_site.py
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.plan import ScenarioSpec, SiteSpec, WorkloadSpec, plan_storage
from repro.sim import Simulator

print(__doc__)

HORIZON = 900.0          # fifteen simulated minutes
CLIENTS_PER_SITE = 1_250_000

spec = ScenarioSpec(
    name="megascale-site", seed=2026, horizon_s=HORIZON,
    sites=(SiteSpec("alameda", (0.0, 0.0)),
           SiteSpec("brookdale", (600.0, -450.0))),
    site_backing="aggregate",
    workload=WorkloadSpec(
        kind="fluid",
        clients=CLIENTS_PER_SITE,
        ops_per_client_s=0.02,       # 25k ops/s offered per site
        op_bytes=4096,
        read_fraction=0.75,
        hit_ratio=0.92,              # hits never touch the kernel
        pulse_s=1.0,
        admit_ops_s=30_000.0,        # the portal's admission ceiling
        geo_mode="async", geo_sites=1),
    faults={"seed": 11, "faults": [
        {"at": 360.0, "kind": "site_loss", "target": "brookdale",
         "duration": 180.0}]},
    observability=True, profiler=True,
    series_interval_s=10.0)

plan = plan_storage(spec)
print(plan.describe())
print()

built = plan.build(Simulator())
result = built.run()

print(f"=== {spec.name}: {2 * CLIENTS_PER_SITE:,} modeled clients, "
      f"{HORIZON:.0f}s horizon ===")
print(f"kernel events processed : {result.events:,} "
      f"(vs ~{int(2 * CLIENTS_PER_SITE * spec.workload.ops_per_client_s * HORIZON):,} "
      f"modeled ops)")
print(f"ops completed / failed  : {result.ok:,} / {result.failed:,}")
for stream in built.streams:
    s = stream.summary()
    print(f"  site {s['name']:<10} offered {s['ops_offered']:>12,.0f}  "
          f"hit-served {s['ops_hit']:>12,.0f}  "
          f"backlog {s['backlog_ops']:>10,.0f}  "
          f"queue delay {s['mean_queue_delay_s']:.2f}s  "
          f"transfers {s['transfers_issued']} "
          f"({s['transfers_failed']} failed in the outage)")
print()

depth = built.profiler.depth_stats()
print(f"peak pending events     : {depth['max']:.0f} "
      f"(mean {depth['avg']:.1f} over {depth['samples']:.0f} samples)")
print(f"fingerprint             : {result.fingerprint}")
print()

print("=== telemetry dashboard ===")
print(built.obs.format_dashboard(max_series=20, profiler_top=5))
