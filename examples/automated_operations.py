#!/usr/bin/env python
"""Automated storage administration (§3, §7.3): the lights-out data center.

The paper's economic argument is the storage-to-administrator ratio: the
system must manage itself.  This example runs a quarter of simulated
operations with zero human tickets:

  1. the auto-policy engine demotes idle datasets (replication + cache
     priority decay) and expires scratch;
  2. a legacy EMC array absorbed into the pool is later evacuated by the
     page migrator and decommissioned — no downtime, no copy scripts;
  3. the charge-back meter bills actual usage throughout.

Run:  python examples/automated_operations.py
"""

from repro.core import AutoPolicyEngine, format_table, idle_demotion_rule
from repro.fs import CRITICAL, ParallelFileSystem
from repro.sim import Simulator
from repro.sim.units import GiB, days, fmt_bytes
from repro.virt import (
    Allocator,
    LegacyArray,
    PageMigrator,
    StoragePool,
    absorb_legacy_array,
    evacuate_pool,
)

print(__doc__)

PAGE = 1 << 20
sim = Simulator()

# The pool: modern FC storage plus an absorbed legacy array (§1).
allocator = Allocator([StoragePool("fc-farm", 512 * GiB, PAGE, tier="fc")])
legacy = LegacyArray("old-emc", 128 * GiB, PAGE, vendor="EMC")
absorb_legacy_array(allocator, legacy)

pfs = ParallelFileSystem(allocator, [0, 1, 2, 3], stripe_unit=PAGE)
pfs.namespace.mkdir("/scratch")
pfs.namespace.mkdir("/projects")

engine = AutoPolicyEngine(sim, pfs, interval=days(1))
engine.add_rule(idle_demotion_rule(idle_seconds=days(30)))
engine.add_scratch_cleanup("/scratch/", max_age=days(7))
engine.start()


# An old archive volume was provisioned on the legacy tier years ago.
from repro.virt import DemandMappedDevice  # noqa: E402

archive = DemandMappedDevice("tape-staging", 512 * GiB, allocator,
                             tier="legacy", owner="ops")
archive.write(0, 25 * GiB)


def quarter_of_operations():
    # Week 1: a campaign lands — hot data, critical policy, scratch churn.
    pfs.create("/projects/campaign.h5", policy=CRITICAL, now=sim.now)
    pfs.write("/projects/campaign.h5", 0, 40 * GiB, now=sim.now)
    for i in range(6):
        path = f"/scratch/tmp{i}"
        pfs.create(path, now=sim.now)
        pfs.write(path, 0, 5 * GiB, now=sim.now)
    yield sim.timeout(days(7))
    print(f"[day  7] scratch files: "
          f"{len([p for p, _ in pfs.namespace.walk_files() if p.startswith('/scratch')])}, "
          f"pool used {fmt_bytes(allocator.used_bytes)}")

    # The campaign ends; nobody touches the data for two months.
    yield sim.timeout(days(60))
    campaign = pfs.open("/projects/campaign.h5")
    print(f"[day 67] campaign policy after idle demotion: "
          f"replication={campaign.policy.replication_mode.value}, "
          f"cache priority={campaign.policy.cache_priority}")
    print(f"[day 67] scratch files remaining: "
          f"{len([p for p, _ in pfs.namespace.walk_files() if p.startswith('/scratch')])}")

    # Quarter end: the legacy array goes off maintenance — evacuate it.
    migrator = PageMigrator(allocator)
    devices = [inode.backing for _p, inode in pfs.namespace.walk_files()
               if inode.backing is not None] + [archive]
    report = migrator.evacuate_pool("old-emc", devices)
    blocked = evacuate_pool(allocator, "old-emc")
    print(f"[day 67] evacuated old-emc: moved "
          f"{fmt_bytes(report.moved_bytes)} "
          f"({report.moved_pages} pages), blocked pages: {blocked}")
    yield sim.timeout(days(23))


sim.process(quarter_of_operations())
sim.run(until=days(91))

print()
rows = [[a.time / 86400.0, a.path, a.kind, a.detail]
        for a in engine.actions[:12]]
print(format_table(["day", "path", "action", "detail"], rows,
                   title=f"automation log ({engine.automation_count()} "
                         "actions, 0 human tickets)"))
print(f"\npools at quarter end: {sorted(allocator.pools)}")
print(f"pool used {fmt_bytes(allocator.used_bytes)} of "
      f"{fmt_bytes(allocator.capacity_bytes)}")
