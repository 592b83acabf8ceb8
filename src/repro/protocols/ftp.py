"""FTP export directly from the controller blades (§1, §8).

Whole-file transfers over a dedicated data connection: a control-channel
handshake, then the file streams from storage through the client link.
Shares the cut-through pipelining of the HTTP engine — the protocol layer
differs only in session mechanics and overhead constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.link import FairShareLink
from ..sim.units import mib, ms
from .http import StorageRead

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class FtpExport:
    """An FTP engine running on the controller blade."""

    def __init__(self, sim: "Simulator", storage_read: StorageRead,
                 client_link: FairShareLink,
                 handshake_time: float = ms(2),
                 chunk_size: int = mib(1),
                 name: str = "ftp") -> None:
        self.sim = sim
        self.storage_read = storage_read
        self.client_link = client_link
        self.handshake_time = handshake_time
        self.chunk_size = chunk_size
        self.name = name
        self.transfers_completed = 0
        self.transfers_failed = 0

    def retr(self, nbytes: int) -> Event:
        """RETR: download a whole file; event fires at transfer complete."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be > 0, got {nbytes}")
        return self.sim.process(self._serve(nbytes), name=f"{self.name}.retr")

    def _serve(self, nbytes: int):
        # USER/PASS/PASV/RETR control exchange.
        yield self.sim.timeout(self.handshake_time)
        pos = 0
        pending: list[Event] = []
        try:
            while pos < nbytes:
                take = min(self.chunk_size, nbytes - pos)
                yield self.storage_read(take)
                pending.append(self.client_link.transfer(take))
                pos += take
            yield self.sim.all_of(pending)
        except FAULT_EXCEPTIONS:
            # Storage or client-link failure aborts the transfer with a
            # visible error instead of a vanished session.
            self.transfers_failed += 1
            raise
        self.transfers_completed += 1
        return nbytes
