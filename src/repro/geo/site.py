"""Data-center sites: location, local storage, and disaster state (§7)."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..sim.events import Event
from ..sim.faults import SimulatedFault
from ..sim.link import FairShareLink
from ..sim.units import mb_per_s, ms

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class SiteFailedError(SimulatedFault):
    """I/O issued to a site that is down (disaster in progress)."""


class Site:
    """One lab data center.

    Local storage is abstracted as a shared-bandwidth service (the site's
    controller cluster + disk farm in aggregate) — the geo experiments
    care about the WAN-vs-local contrast, not intra-site queueing detail,
    which E1–E4 cover.  ``position`` is a plane coordinate in km, from
    which inter-site fibre distances derive.
    """

    def __init__(self, sim: "Simulator", name: str,
                 position: tuple[float, float] = (0.0, 0.0),
                 storage_bandwidth: float = mb_per_s(800),
                 storage_latency: float = ms(4),
                 backend_read=None, backend_write=None) -> None:
        self.sim = sim
        self.name = name
        self.position = position
        self.storage_latency = storage_latency
        self.store_link = FairShareLink(sim, storage_bandwidth,
                                        name=f"{name}.store")
        #: optional delegates (nbytes -> Event) replacing the aggregate
        #: storage model with a full per-site NetStorageSystem data path.
        self.backend_read = backend_read
        self.backend_write = backend_write
        self.failed = False
        #: ``fn(site, failed)`` callbacks fired on actual up/down
        #: transitions — redundant fail()/repair() calls are silent, so
        #: subscribers see each outage exactly once.
        self.on_state_change: list = []
        self.bytes_read = 0
        self.bytes_written = 0

    def distance_to(self, other: "Site") -> float:
        """Great-plane km between sites (fibre runs are at least this)."""
        dx = self.position[0] - other.position[0]
        dy = self.position[1] - other.position[1]
        return math.hypot(dx, dy)

    # -- local storage I/O ----------------------------------------------------------

    def store_read(self, nbytes: int) -> Event:
        """Read from this site's storage (aggregate model or backend)."""
        return self._io(nbytes, is_read=True)

    def store_write(self, nbytes: int) -> Event:
        """Write to this site's storage (aggregate model or backend)."""
        return self._io(nbytes, is_read=False)

    def _io(self, nbytes: int, is_read: bool) -> Event:
        if self.failed:
            failed = Event(self.sim)
            failed.fail(SiteFailedError(f"site {self.name} is down"))
            return failed
        if is_read:
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes
        backend = self.backend_read if is_read else self.backend_write
        if backend is not None:
            return backend(nbytes)
        done = Event(self.sim)

        def after_latency(_ev: Event) -> None:
            self.store_link.transfer(nbytes).add_callback(
                lambda ev: done.succeed(nbytes) if ev.ok
                else done.fail(ev.value))

        self.sim.timeout(self.storage_latency).add_callback(after_latency)
        return done

    # -- disaster control --------------------------------------------------------------

    def fail(self) -> None:
        """Complete site outage (§6.2: 'failure of the entire site')."""
        if self.failed:
            return
        self.failed = True
        for fn in self.on_state_change:
            fn(self, True)

    def repair(self) -> None:
        """Bring the site back online after a disaster."""
        if not self.failed:
            return
        self.failed = False
        for fn in self.on_state_change:
            fn(self, False)
