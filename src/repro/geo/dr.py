"""Real-time disaster recovery between data centers (§6.2, §7, Figure 3).

On a complete site failure the surviving sites promote their replicas and
absorb the failed site's clients.  The coordinator measures what the
paper's marketing promises: recovery time (RTO — detection plus catalog
failover) and data loss (RPO — acked writes that had not finished
replicating, plus files that were never replicated by policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.events import Event
from ..sim.units import ms
from .replication import GeoReplicator
from .site import Site
from .wan import WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


@dataclass
class RecoveryReport:
    """Outcome of one site disaster."""

    site: str
    failed_at: float
    recovered_at: float
    lost_files: int
    safe_files: int
    rpo_bytes: int
    new_homes: dict[str, str]

    @property
    def rto(self) -> float:
        return self.recovered_at - self.failed_at


class DisasterRecoveryCoordinator:
    """Watches for site failures and fails service over to survivors."""

    def __init__(self, sim: "Simulator", network: WanNetwork,
                 replicator: GeoReplicator,
                 detection_delay: float = ms(800),
                 catalog_failover_time: float = 2.0) -> None:
        self.sim = sim
        self.network = network
        self.replicator = replicator
        self.detection_delay = detection_delay
        self.catalog_failover_time = catalog_failover_time
        self.reports: list[RecoveryReport] = []

    def fail_site(self, site: Site) -> Event:
        """Kill a site now and run recovery; the event's value is the
        :class:`RecoveryReport`."""
        pre_failure = self.replicator.site_disaster_report(site.name)
        site.fail()
        failed_at = self.sim.now
        return self.sim.process(self._recover(site, failed_at, pre_failure),
                                name=f"dr.{site.name}")

    def _recover(self, site: Site, failed_at: float,
                 pre_failure: dict[str, int]):
        # Heartbeats time out, then surviving sites elect and rebuild the
        # catalog view (virtualization maps are metadata, already global).
        yield self.sim.timeout(self.detection_delay)
        yield self.sim.timeout(self.catalog_failover_time)
        new_homes: dict[str, str] = {}
        for path, gf in self.replicator.files.items():
            if gf.home != site.name:
                continue
            survivors = [name for name in gf.copies
                         if name != site.name
                         and not self.network.sites[name].failed]
            if survivors:
                # Nearest surviving replica becomes the new home.
                survivors.sort(key=lambda name: (
                    site.distance_to(self.network.sites[name]), name))
                gf.home = survivors[0]
                new_homes[path] = survivors[0]
                # Fence the old holder (epoch bump) and strand its
                # un-drained acked bytes as an orphan fork: if the site
                # returns it rejoins as a fenced replica and the
                # reconciler settles the fork — it must NOT resume
                # write authority on its stale epoch.
                self.replicator.note_failover(path, site.name,
                                              survivors[0])
        # Backlog *from* the dead site can never drain: account it as loss
        # (rehomed files' entries were already consumed by note_failover).
        for key in list(self.replicator.async_backlog):
            path, _target = key
            if self.replicator.files[path].home == site.name \
                    or path in new_homes:
                self.replicator.async_backlog.pop(key, None)
        report = RecoveryReport(
            site=site.name,
            failed_at=failed_at,
            recovered_at=self.sim.now,
            lost_files=pre_failure["lost_files"],
            safe_files=pre_failure["safe_files"],
            rpo_bytes=pre_failure["rpo_bytes"],
            new_homes=new_homes,
        )
        self.reports.append(report)
        return report
