"""Cost-model replica selection for geo reads (Globus Data Grid style).

The migration layer (§7.1) decides *where a block comes from* when a read
misses locally.  The original choice was a static fibre-distance sort,
which ignores everything a real grid knows: observed link conditions,
site load, and replication staleness.  *Replica Selection in the Globus
Data Grid* (PAPERS.md) selects replicas from **history-driven cost
prediction** instead — past transfer performance predicts the next
transfer — and this module reproduces that idea on the simulator's WAN:

* :class:`RouteHistory` — per-(src, dst) EWMAs of observed WAN
  throughput, fed by every :meth:`~repro.geo.wan.WanNetwork.transfer`
  through the network's observer hook, plus per-site outstanding-transfer
  counts (the load signal).  Pure bookkeeping: it never schedules kernel
  events, so attaching it cannot perturb a trace.
* :class:`ReplicaCatalog` — per (path, site) residency + freshness:
  which sites hold which blocks (live view over
  :class:`~repro.geo.migration.FileResidency`), how many bytes a replica
  is behind the home copy (read off
  :meth:`~repro.geo.replication.GeoReplicator` async backlog), and the
  WAN seconds each site has paid for remote reads, which drives §7.1
  migration.
* Selectors — :class:`StaticSelector` (the pre-existing fibre-distance
  sort), :class:`RandomSelector` (seeded uniform choice, the A/B
  control), and :class:`CostModelSelector` (predicted transfer time from
  the history EWMAs + load penalty + staleness penalty under the file's
  RPO policy).  All three return a deterministically ordered *candidate
  list*, so the read path can fall back to the next candidate when a WAN
  partition cuts the first — unreachable is just infinite cost.

Every ranking is deterministic: EWMAs are pure functions of the observed
event sequence, and ties break on site name, so same-seed traces stay
byte-identical across scheduler backends.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import TYPE_CHECKING, Callable

from ..sim.rng import stable_hash
from .site import Site
from .wan import NoRouteError, WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from .migration import DistributedAccessManager, FileResidency
    from .replication import GeoReplicator

#: The holder-choice policies a scenario can declare.
SELECTION_POLICIES = ("static", "random", "cost")

#: Cost treated as unreachable (a partitioned or failed holder).
UNREACHABLE = float("inf")


class RouteHistory:
    """Observed WAN behaviour per (src, dst) route, as EWMAs.

    ``transfer_started`` / ``transfer_completed`` implement the
    :class:`~repro.geo.wan.WanNetwork` observer protocol.  Throughput is
    the *effective* end-to-end rate (bytes over wall duration, queueing
    and propagation included) — exactly the history the Globus selector
    trains on, where a congested or long route simply looks slow.
    """

    def __init__(self, network: WanNetwork, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.network = network
        self.alpha = alpha
        #: (src, dst) -> EWMA of observed end-to-end bytes/second.
        self._bw: dict[tuple[str, str], float] = {}
        #: site -> transfers currently in flight touching it.
        self.outstanding: dict[str, int] = defaultdict(int)
        self.samples = 0

    def attach(self) -> "RouteHistory":
        """Subscribe to the network's transfer observer hook (idempotent)."""
        if self not in self.network.observers:
            self.network.observers.append(self)
        return self

    # -- observer protocol -----------------------------------------------------

    def transfer_started(self, src: Site, dst: Site, nbytes: int,
                         hops: int) -> None:
        self.outstanding[src.name] += 1
        self.outstanding[dst.name] += 1

    def transfer_completed(self, src: Site, dst: Site, nbytes: int,
                           hops: int, start: float, end: float,
                           ok: bool) -> None:
        self.outstanding[src.name] = max(0, self.outstanding[src.name] - 1)
        self.outstanding[dst.name] = max(0, self.outstanding[dst.name] - 1)
        if not ok or end <= start or nbytes <= 0:
            return
        observed = nbytes / (end - start)
        key = (src.name, dst.name)
        prev = self._bw.get(key)
        self._bw[key] = (observed if prev is None
                         else self.alpha * observed + (1 - self.alpha) * prev)
        self.samples += 1

    # -- prediction ------------------------------------------------------------

    def observed_bandwidth(self, src: Site, dst: Site) -> float | None:
        """The EWMA throughput for a route, or None before any sample."""
        return self._bw.get((src.name, dst.name))

    def predicted_seconds(self, src: Site, dst: Site, nbytes: int) -> float:
        """History-driven transfer-time prediction for one route.

        Cold routes fall back to the current route's nominal shape
        (propagation sum + bottleneck-link bandwidth), so the selector is
        informed before the first observation; unreachable routes —
        failed endpoints or a WAN cut — cost :data:`UNREACHABLE`.
        """
        try:
            links = self.network.route(src, dst)
        except NoRouteError:
            return UNREACHABLE
        propagation = sum(link.latency for link in links)
        bandwidth = self._bw.get((src.name, dst.name))
        if bandwidth is None:
            bandwidth = min(link.bandwidth for link in links)
        if bandwidth <= 0:
            return UNREACHABLE
        return propagation + nbytes / bandwidth

    def hops(self, src: Site, dst: Site) -> int:
        """Surviving route length in links (0 when unreachable)."""
        try:
            return len(self.network.route(src, dst))
        except NoRouteError:
            return 0


class ReplicaCatalog:
    """Residency, freshness, and access history per (path, site).

    The catalog is the corrected bookkeeping every selector reads:

    * **Residency** is a live view over the access manager's
      :class:`~repro.geo.migration.FileResidency` block sets — kept in
      sync by :meth:`note_copy_complete` (wired to
      ``GeoReplicator.on_copy_complete``, fixing the stale-snapshot bug
      where replicas finished after first access stayed invisible).
    * **Freshness** is how many bytes a replica site is behind the home
      copy: the replicator's per-(path, target) async backlog.
    * **Access history** is what §7.1 migration runs on: the WAN
      seconds a site keeps paying for remote service of a file.
    """

    def __init__(self, access: "DistributedAccessManager | None" = None,
                 replicator: "GeoReplicator | None" = None) -> None:
        self.access = access
        self.replicator = replicator
        #: (path, site) -> WAN seconds paid on remote reads.
        self._history: dict[tuple[str, str], float] = {}

    def bind_replicator(self, replicator: "GeoReplicator") -> None:
        """Late binding (the metacenter builds the replicator first) and
        subscription to copy-completion notifications."""
        self.replicator = replicator
        if self.note_copy_complete not in replicator.on_copy_complete:
            replicator.on_copy_complete.append(self.note_copy_complete)

    # -- residency -------------------------------------------------------------

    def _residency(self, path: str) -> "FileResidency | None":
        if self.access is None:
            return None
        return self.access.files.get(path)

    def note_copy_complete(self, path: str, site: str) -> None:
        """A replica site just caught up with the home copy: fold the
        full block set into the access manager's residency so the very
        next read can be served from it (the stale-snapshot fix)."""
        fr = self._residency(path)
        if fr is not None:
            fr.resident[site] = set(range(fr.block_count))

    # -- freshness -------------------------------------------------------------

    def staleness_bytes(self, path: str, site: str) -> int:
        """Bytes this site's copy is behind the home (0 = current).

        Two sources stack: async backlog the pump will still deliver,
        and divergence a partition/failover opened that only the
        reconcile daemon closes.  Either way the copy is worth less
        until the bytes land.
        """
        if self.replicator is None:
            return 0
        return (self.replicator.async_backlog.get((path, site), 0)
                + self.replicator.divergence.get((path, site), 0))

    # -- access history --------------------------------------------------------

    def record_read(self, path: str, site: str, wan_seconds: float) -> None:
        """A remote read of ``path`` at ``site`` took ``wan_seconds``."""
        key = (path, site)
        self._history[key] = self._history.get(key, 0.0) + wan_seconds

    def wan_seconds(self, path: str, site: str) -> float:
        """Cumulative WAN time a site has paid reading this file."""
        return self._history.get((path, site), 0.0)


class ReplicaSelector:
    """Base holder-choice policy: rank candidate sites for one block read.

    Subclasses define ``rank``, which orders the live holders of a block.
    The read path tries them in order, falling back on
    :class:`~repro.geo.wan.NoRouteError`, so "unreachable first choice"
    degrades to the next candidate instead of a failed read.
    """

    policy = "abstract"

    def __init__(self, network: WanNetwork,
                 catalog: ReplicaCatalog | None = None) -> None:
        self.network = network
        self.catalog = catalog if catalog is not None else ReplicaCatalog()

    def _live_holders(self, fr: "FileResidency", block: int,
                      at: Site) -> list[Site]:
        """Holder sites that are up (sorted by name for determinism)."""
        return [self.network.sites[name]
                for name in fr.holders_of(block)
                if name != at.name and not self.network.sites[name].failed]

    # -- §7.1 migration policy -------------------------------------------------

    def should_replicate(self, fr: "FileResidency", at: str,
                         threshold: int) -> bool:
        """The pre-existing §7.1 rule: hot at this site N times."""
        return fr.access_counts[at] >= threshold


class StaticSelector(ReplicaSelector):
    """The original policy: nearest surviving holder by fibre distance.

    Byte-identical ordering to the pre-selection nearest-holder sort
    (distance, then name), so scenarios declaring ``selection="static"``
    reproduce their pre-selector traces exactly.
    """

    policy = "static"

    def rank(self, fr: "FileResidency", block: int, at: Site,
             nbytes: int) -> list[Site]:
        holders = self._live_holders(fr, block, at)
        holders.sort(key=lambda s: (at.distance_to(s), s.name))
        return holders


class RandomSelector(ReplicaSelector):
    """Uniform choice among surviving holders (the A/B control arm).

    Seeded via :func:`~repro.sim.rng.stable_hash`, so the pick sequence
    is a pure function of (seed, call order) — deterministic across
    machines, Python versions, and scheduler backends.
    """

    policy = "random"

    def __init__(self, network: WanNetwork,
                 catalog: ReplicaCatalog | None = None,
                 seed: int = 0) -> None:
        super().__init__(network, catalog)
        self.rng = random.Random(stable_hash((seed, "replica-selection")))

    def rank(self, fr: "FileResidency", block: int, at: Site,
             nbytes: int) -> list[Site]:
        holders = sorted(self._live_holders(fr, block, at),
                         key=lambda s: s.name)
        self.rng.shuffle(holders)
        return holders


class CostModelSelector(ReplicaSelector):
    """History-driven cost prediction over candidate replica sites.

    The score of serving ``nbytes`` from holder ``h`` to reader ``at``:

    ``predicted_seconds(h, at, nbytes)``
        from the :class:`RouteHistory` EWMAs (propagation + bytes over
        observed end-to-end throughput; nominal route shape before the
        first sample; infinite when no surviving route exists);
    ``+ load_penalty_s * (outstanding transfers at h + blades down)``
        the site-load signal: in-flight WAN transfers touching the
        holder from the history, plus degraded capacity from the
        management plane via ``site_load_fn`` (the metacenter wires
        per-site blades-down here);
    ``+ staleness_bytes / staleness_bandwidth``
        the freshness penalty: a replica behind the home copy is worth
        less, scaled like the time it would take to catch up.  Files
        with a **sync** replication policy (RPO 0) treat any staleness
        as disqualifying — a stale copy is not the file.

    Ties break on site name, so rankings are deterministic.
    """

    policy = "cost"

    def __init__(self, network: WanNetwork,
                 catalog: ReplicaCatalog | None = None,
                 history: RouteHistory | None = None,
                 load_penalty_s: float = 0.002,
                 staleness_bandwidth: float = 100e6,
                 site_load_fn: Callable[[str], float] | None = None,
                 migrate_after_wan_s: float = 0.5) -> None:
        super().__init__(network, catalog)
        if staleness_bandwidth <= 0:
            raise ValueError("staleness_bandwidth must be > 0, "
                             f"got {staleness_bandwidth}")
        self.history = (history if history is not None
                        else RouteHistory(network)).attach()
        self.load_penalty_s = load_penalty_s
        self.staleness_bandwidth = staleness_bandwidth
        self.site_load_fn = site_load_fn
        #: §7.1 access-driven migration: replicate the file to a site
        #: once its cumulative WAN read time passes this, even below the
        #: access-count threshold ("the system would recognize files
        #: that are commonly accessed at multiple locations").
        self.migrate_after_wan_s = migrate_after_wan_s

    def cost(self, fr: "FileResidency", holder: Site, at: Site,
             nbytes: int) -> float:
        """The full predicted cost of one candidate (inf = unusable)."""
        predicted = self.history.predicted_seconds(holder, at, nbytes)
        if predicted == UNREACHABLE:
            return UNREACHABLE
        stale = self.catalog.staleness_bytes(fr.path, holder.name)
        if stale > 0:
            # staleness > 0 means the catalog has a replicator.
            gf = self.catalog.replicator.files.get(fr.path)
            if gf is not None and gf.policy.replication_mode.value == "sync":
                return UNREACHABLE  # RPO 0: a stale copy is not the file
            predicted += stale / self.staleness_bandwidth
        load = float(self.history.outstanding.get(holder.name, 0))
        if self.site_load_fn is not None:
            load += float(self.site_load_fn(holder.name))
        return predicted + self.load_penalty_s * load

    def rank(self, fr: "FileResidency", block: int, at: Site,
             nbytes: int) -> list[Site]:
        scored = sorted(
            ((self.cost(fr, h, at, nbytes), h.name, h)
             for h in self._live_holders(fr, block, at)),
            key=lambda t: (t[0], t[1]))
        # Unreachable candidates stay in the list (last): the read path's
        # transfer will raise NoRouteError and fall through them, which
        # keeps "everything partitioned" failing with the true error.
        return [h for _cost, _name, h in scored]

    # -- §7.1 migration from the same history ---------------------------------

    def should_replicate(self, fr: "FileResidency", at: str,
                         threshold: int) -> bool:
        if fr.access_counts[at] >= threshold:
            return True
        return (self.catalog.wan_seconds(fr.path, at)
                >= self.migrate_after_wan_s)


def make_selector(policy: str, network: WanNetwork,
                  catalog: ReplicaCatalog | None = None, seed: int = 0,
                  **kwargs) -> ReplicaSelector:
    """Build a selector by policy name (``static | random | cost``)."""
    if policy == "static":
        return StaticSelector(network, catalog)
    if policy == "random":
        return RandomSelector(network, catalog, seed=seed)
    if policy == "cost":
        return CostModelSelector(network, catalog, **kwargs)
    raise ValueError(f"selection policy must be one of {SELECTION_POLICIES}, "
                     f"got {policy!r}")


__all__ = ["SELECTION_POLICIES", "UNREACHABLE", "CostModelSelector",
           "RandomSelector", "ReplicaCatalog", "ReplicaSelector",
           "RouteHistory", "StaticSelector", "make_selector"]
