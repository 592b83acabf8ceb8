"""Direct HTTP export from the storage system (§8) and its baseline.

"An HTTP engine could run entirely on the controller blade except for the
authentication and CGI-bin programs, which would execute on a server" —
static content streams straight from storage to the network, skipping the
store-and-forward hop through a web server.  E14 contrasts the two paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.link import FairShareLink
from ..sim.units import mib, us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: storage_read(nbytes) -> Event, the storage-side fetch of content bytes.
StorageRead = Callable[[int], Event]


class DirectHttpExport:
    """HTTP served by the controller blade itself.

    Per request: parse + auth callout overhead, then content is *pipelined*
    from storage to the client link chunk by chunk (cut-through, no full
    staging hop).
    """

    def __init__(self, sim: "Simulator", storage_read: StorageRead,
                 client_link: FairShareLink,
                 request_overhead: float = us(200),
                 auth_callout: float = 0.001,
                 chunk_size: int = mib(1),
                 name: str = "http") -> None:
        self.sim = sim
        self.storage_read = storage_read
        self.client_link = client_link
        self.request_overhead = request_overhead
        self.auth_callout = auth_callout
        self.chunk_size = chunk_size
        self.name = name
        self.requests_served = 0
        self.requests_failed = 0

    def get(self, nbytes: int, authenticated: bool = True) -> Event:
        """Serve one GET of ``nbytes``; event fires at last byte delivered."""
        return self.sim.process(self._serve(nbytes, authenticated),
                                name=f"{self.name}.get")

    def _serve(self, nbytes: int, authenticated: bool):
        yield self.sim.timeout(self.request_overhead)
        if authenticated:
            # CGI/auth executes on an external server, not the blade (§8).
            yield self.sim.timeout(self.auth_callout)
        pos = 0
        pending: list[Event] = []
        try:
            while pos < nbytes:
                take = min(self.chunk_size, nbytes - pos)
                yield self.storage_read(take)
                pending.append(self.client_link.transfer(take))
                pos += take
            if pending:
                yield self.sim.all_of(pending)
        except FAULT_EXCEPTIONS:
            # A storage fault becomes a failed request (a 500, in HTTP
            # terms) instead of a silently-vanished connection.
            self.requests_failed += 1
            raise
        self.requests_served += 1
        return nbytes


class ServerMediatedExport:
    """The traditional path: storage → web server → client.

    Every byte crosses the server's storage-side link, its memory/CPU, and
    then the client link; the server is also a shared chokepoint across
    concurrent requests.
    """

    def __init__(self, sim: "Simulator", storage_read: StorageRead,
                 server_link: FairShareLink, client_link: FairShareLink,
                 server_cpu_per_byte: float = 1.0 / 800e6,
                 request_overhead: float = us(400),
                 chunk_size: int = mib(1), name: str = "webserver") -> None:
        self.sim = sim
        self.storage_read = storage_read
        self.server_link = server_link
        self.client_link = client_link
        self.server_cpu_per_byte = server_cpu_per_byte
        self.request_overhead = request_overhead
        self.chunk_size = chunk_size
        self.name = name
        self.requests_served = 0

    def get(self, nbytes: int) -> Event:
        """Serve one GET of ``nbytes``; event fires at last byte delivered."""
        return self.sim.process(self._serve(nbytes), name=f"{self.name}.get")

    def _serve(self, nbytes: int):
        yield self.sim.timeout(self.request_overhead)
        pos = 0
        while pos < nbytes:
            take = min(self.chunk_size, nbytes - pos)
            yield self.storage_read(take)
            yield self.server_link.transfer(take)  # storage -> server
            yield self.sim.timeout(self.server_cpu_per_byte * take)
            yield self.client_link.transfer(take)  # server -> client
            pos += take
        self.requests_served += 1
        return nbytes
