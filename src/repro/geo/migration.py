"""Distributed data access: fetch-on-first-use, prefetch, auto-replication (§7.1).

"The first time the data was referenced, a copy of the data would be moved
to the referencing site.  As a result, there would be a network-induced
delay while the initial block of a file is referenced, but other blocks
within the file would be prefetched, allowing local access performance.
The system would recognize files that are commonly accessed at multiple
locations and automatically replicate copies of the underlying data
blocks to ensure fast access."

Where a remote block comes *from* is a pluggable
:class:`~repro.geo.selection.ReplicaSelector`: the default is the
history-driven :class:`~repro.geo.selection.CostModelSelector` (observed
WAN throughput EWMAs + site load + staleness), with ``static`` (the
original fibre-distance sort) and ``random`` available for A/B runs.
Holder candidates are tried in ranked order, so a candidate cut off by a
WAN partition falls through to the next one instead of failing the read.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..obs.timeseries import bind_by_site
from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS, SimulatedFault
from .selection import ReplicaCatalog, ReplicaSelector, make_selector
from .site import Site
from .wan import NoRouteError, WanNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class NoSurvivingCopyError(SimulatedFault):
    """Every holder of a block is down: the read cannot be served."""


class FileResidency:
    """Which sites hold which blocks of one file."""

    __slots__ = ("path", "block_size", "block_count", "home", "resident",
                 "access_counts")

    def __init__(self, path: str, size: int, block_size: int,
                 home: str) -> None:
        self.path = path
        self.block_size = block_size
        self.block_count = max(1, -(-size // block_size))
        self.home = home
        #: site -> set of resident block indices
        self.resident: dict[str, set[int]] = {
            home: set(range(self.block_count))}
        self.access_counts: dict[str, int] = defaultdict(int)

    def holders_of(self, block: int) -> list[str]:
        """Site names holding this block, sorted for determinism."""
        return sorted(name for name, blocks in self.resident.items()
                      if block in blocks)

    def fully_resident_at(self, site: str) -> bool:
        """True when the site holds every block of the file."""
        return len(self.resident.get(site, ())) == self.block_count


class DistributedAccessManager:
    """Serves block reads anywhere, migrating data toward its users.

    ``selection`` is a policy name (``static | random | cost``) or a
    ready :class:`~repro.geo.selection.ReplicaSelector`; the selector
    shares this manager's :class:`~repro.geo.selection.ReplicaCatalog`,
    which carries residency, freshness, and the access history the §7.1
    migration decisions run on.
    """

    def __init__(self, sim: "Simulator", network: WanNetwork,
                 block_size: int = 1024 * 1024,
                 auto_replicate_threshold: int = 3,
                 prefetch_depth: int = 8,
                 selection: "str | ReplicaSelector" = "cost",
                 selection_seed: int = 0) -> None:
        if auto_replicate_threshold < 1:
            raise ValueError("auto_replicate_threshold must be >= 1")
        self.sim = sim
        self.network = network
        self.block_size = block_size
        self.auto_replicate_threshold = auto_replicate_threshold
        self.prefetch_depth = prefetch_depth
        self.files: dict[str, FileResidency] = {}
        self.local_reads = 0
        self.remote_reads = 0
        #: Candidates skipped for having no route.
        self.rerouted = 0
        self.prefetched_blocks = 0
        self._wan_cost = bind_by_site(sim, "geo.select.wan_cost_s")
        self.catalog = ReplicaCatalog(access=self)
        if isinstance(selection, ReplicaSelector):
            self.selector = selection
            if self.selector.catalog is not self.catalog:
                # One catalog serves both: adopt the selector's.
                self.catalog = self.selector.catalog
                self.catalog.access = self
        else:
            self.selector = make_selector(selection, network,
                                          catalog=self.catalog,
                                          seed=selection_seed)

    def register(self, path: str, size: int, home: Site) -> FileResidency:
        """Track a file's residency, initially complete at its home site."""
        if path in self.files:
            raise ValueError(f"file {path!r} already registered")
        fr = FileResidency(path, size, self.block_size, home.name)
        self.files[path] = fr
        return fr

    # -- the read path ------------------------------------------------------------------

    def read(self, path: str, block: int, at: Site) -> Event:
        """Read one block at a site; event value is "local" or "remote"."""
        return self.sim.process(self._read(path, block, at), name="geo.read")

    def _read(self, path: str, block: int, at: Site):
        fr = self.files[path]
        if not 0 <= block < fr.block_count:
            raise ValueError(f"block {block} outside {path!r}")
        fr.access_counts[at.name] += 1
        local = fr.resident.setdefault(at.name, set())
        started = self.sim.now
        if block in local:
            yield at.store_read(self.block_size)
            self.local_reads += 1
            return "local"
        source = yield from self._fetch(fr, block, at)
        yield at.store_write(self.block_size)
        local.add(block)
        self.remote_reads += 1
        wan_seconds = self.sim.now - started
        self.catalog.record_read(path, at.name, wan_seconds)
        if self._wan_cost is not None:
            self._wan_cost[at.name].record(wan_seconds)
        # ...and prefetch the following blocks in the background (§7.1).
        self._background_prefetch(fr, block + 1, source, at)
        # Hot here by access count — or, under the cost model, by the WAN
        # cost this site keeps paying?  Auto-replicate the whole file.
        if self.selector.should_replicate(fr, at.name,
                                          self.auto_replicate_threshold) \
                and not fr.fully_resident_at(at.name):
            self._background_replicate(fr, source, at)
        return "remote"

    def _fetch(self, fr: FileResidency, block: int, at: Site):
        """Pull one block to ``at`` from the best-ranked reachable holder
        and return that holder.  A partitioned candidate (NoRouteError
        before any bytes move) falls through to the next one; with no
        holder left the last NoRouteError, or NoSurvivingCopyError,
        propagates."""
        no_route: NoRouteError | None = None
        for candidate in self.selector.rank(fr, block, at, self.block_size):
            try:
                yield self.network.transfer(candidate, at, self.block_size)
            except NoRouteError as exc:
                no_route = exc
                self.rerouted += 1
                continue
            return candidate
        raise (no_route if no_route is not None else NoSurvivingCopyError(
            f"no surviving copy of {fr.path!r}[{block}]"))

    # -- background movement ----------------------------------------------------------------

    def _background_prefetch(self, fr: FileResidency, start: int,
                             source: Site, at: Site) -> None:
        blocks = [b for b in range(start, min(start + self.prefetch_depth,
                                              fr.block_count))
                  if b not in fr.resident[at.name]]
        if not blocks:
            return

        def run():
            try:
                for b in blocks:
                    if source.failed or at.failed:
                        return
                    yield self.network.transfer(source, at, self.block_size)
                    yield at.store_write(self.block_size)
                    fr.resident[at.name].add(b)
                    self.prefetched_blocks += 1
            except FAULT_EXCEPTIONS:
                return  # a fault *mid-transfer* abandons the prefetch

        self.sim.process(run(), name="geo.prefetch")

    def _background_replicate(self, fr: FileResidency, source: Site,
                              at: Site) -> None:
        missing = [b for b in range(fr.block_count)
                   if b not in fr.resident[at.name]]

        def run():
            try:
                for b in missing:
                    if source.failed or at.failed:
                        return
                    if b in fr.resident[at.name]:
                        continue
                    yield self.network.transfer(source, at, self.block_size)
                    yield at.store_write(self.block_size)
                    fr.resident[at.name].add(b)
            except FAULT_EXCEPTIONS:
                return  # a fault mid-transfer abandons the copy

        self.sim.process(run(), name="geo.autoreplicate")
