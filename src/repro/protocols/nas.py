"""File-level export: an NFS/CIFS-style server on the controller blades (§4).

"The file system can be accessed from a host using IP, Fibre Channel, or
Infiniband networking using a variety of access protocols including NFS,
CIFS, or, when available, DAFS."  The server front-ends the integrated
PFS with protocol-realistic behaviour: per-RPC overhead, an attribute
cache that suppresses redundant GETATTR round trips, and chunked READ /
WRITE transfers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..fs.pfs import ParallelFileSystem
from ..sim.events import Event
from ..sim.units import kib, us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: data_path(blade_id, key, op) -> Event — the cached block I/O hook.
DataPath = Callable[[int, tuple, str], Event]


class NasServer:
    """A file-protocol head on the blade cluster."""

    def __init__(self, sim: "Simulator", pfs: ParallelFileSystem,
                 data_path: DataPath, rpc_overhead: float = us(120),
                 max_transfer: int = kib(32), attr_cache_ttl: float = 3.0,
                 name: str = "nas") -> None:
        self.sim = sim
        self.pfs = pfs
        self.data_path = data_path
        self.rpc_overhead = rpc_overhead
        self.max_transfer = max_transfer
        self.attr_cache_ttl = attr_cache_ttl
        self.name = name
        self.rpc_count = 0
        self._attr_cache: dict[str, float] = {}  # path -> expiry

    # -- metadata RPCs -----------------------------------------------------------------

    def getattr(self, path: str) -> Event:
        """GETATTR, served from the attribute cache when fresh."""
        if self._attr_cache.get(path, -1.0) > self.sim.now:
            hit = Event(self.sim)
            hit.succeed(self.pfs.open(path).size)
            return hit
        return self.sim.process(self._getattr(path),
                                name=f"{self.name}.getattr")

    def _getattr(self, path: str):
        yield self.sim.timeout(self.rpc_overhead)
        self.rpc_count += 1
        inode = self.pfs.open(path)
        self._attr_cache[path] = self.sim.now + self.attr_cache_ttl
        return inode.size

    # -- data RPCs ----------------------------------------------------------------------

    def read(self, path: str, offset: int, nbytes: int) -> Event:
        """READ: split into max_transfer RPCs, each hitting the data path."""
        return self._io(path, offset, nbytes, "read")

    def write(self, path: str, offset: int, nbytes: int) -> Event:
        """WRITE followed by an implied COMMIT (write-back semantics)."""
        return self._io(path, offset, nbytes, "write")

    def _io(self, path: str, offset: int, nbytes: int, op: str) -> Event:
        return self.sim.process(self._serve(path, offset, nbytes, op),
                                name=f"{self.name}.{op}")

    def _serve(self, path: str, offset: int, nbytes: int, op: str):
        inode = self.pfs.open(path)
        if op == "write":
            self.pfs.write(path, offset, nbytes, now=self.sim.now)
            self._attr_cache.pop(path, None)  # size changed
        pos = offset
        end = offset + nbytes
        while pos < end:
            take = min(self.max_transfer, end - pos)
            yield self.sim.timeout(self.rpc_overhead)
            self.rpc_count += 1
            block = pos // self.pfs.stripe_unit
            blade = self.pfs.blade_for_block(inode, block)
            key = self.pfs.block_key(inode, block)
            yield self.data_path(blade, key, op)
            pos += take
        return nbytes
