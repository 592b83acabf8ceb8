"""The traditional baseline: islands of storage (§1, §7).

"Current storage forms cul-de-sacs of data off the network" — each array
is one controller that exclusively owns its disks and its cache.  Data is
statically partitioned: a volume lives wholly on one island, every request
for it must pass through that island's controller, and neighboring idle
controllers cannot help.  This is the architecture whose hot spots,
rebuild pain, and replication costs §2–§7 argue against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..cache.block_cache import BlockCache, BlockState
from ..hardware.disk import Disk
from ..sim.events import Event
from ..sim.resources import Resource
from ..sim.units import gib, us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class StorageIsland:
    """One traditional dual-ported array: controller + private cache + disks."""

    def __init__(self, sim: "Simulator", island_id: int, disks: list[Disk],
                 cache_bytes: int = gib(4), block_size: int = 64 * 1024,
                 controller_cores: int = 2, cpu_per_io: float = us(50),
                 disk_latency: float | None = None) -> None:
        if not disks and disk_latency is None:
            raise ValueError("an island needs disks or a disk_latency model")
        self.sim = sim
        self.island_id = island_id
        self.disks = disks
        self.block_size = block_size
        self.cache = BlockCache(max(1, cache_bytes // block_size),
                                name=f"island{island_id}.cache")
        self.controller = Resource(sim, capacity=controller_cores)
        self.cpu_per_io = cpu_per_io
        self.disk_latency = disk_latency
        self.ops = 0
        self._rr_disk = 0

    def read(self, key: Hashable) -> Event:
        """Read one block through this island's (only) controller."""
        return self.sim.process(self._serve(key), name="island.read")

    def _serve(self, key: Hashable):
        # The controller CPU is held for the firmware work only; the disk
        # access proceeds without pinning a core (DMA-era behaviour).
        req = self.controller.request()
        yield req
        try:
            self.ops += 1
            yield self.sim.timeout(self.cpu_per_io)
            hit = self.cache.lookup(key) is not None
            if hit:
                yield self.sim.timeout(self.block_size / 3.2e9 + us(5))
        finally:
            self.controller.release(req)
        if hit:
            return "cache"
        yield self._disk_read()
        self.cache.insert(key, BlockState.SHARED)
        return "disk"

    def _disk_read(self) -> Event:
        if self.disk_latency is not None:
            return self.sim.timeout(self.disk_latency)
        disk = self.disks[self._rr_disk % len(self.disks)]
        self._rr_disk += 1
        offset = (self._rr_disk * self.block_size) % max(
            self.block_size, disk.capacity - self.block_size)
        return disk.read(offset, self.block_size)


class IslandFarm:
    """A data center of islands with *static* data placement.

    ``home_of`` hashes a volume to its island — the request cannot be
    served anywhere else, which is precisely the hot-spot mechanism of
    §2: "controllers ... gate access to 'hot data', while other
    controllers in the data center remain relatively idle."
    """

    def __init__(self, sim: "Simulator", islands: list[StorageIsland]) -> None:
        if not islands:
            raise ValueError("farm needs at least one island")
        self.sim = sim
        self.islands = islands

    def home_of(self, volume: Hashable) -> StorageIsland:
        """The island that exclusively owns this volume (static placement)."""
        from ..sim.rng import stable_hash
        index = stable_hash(volume) % len(self.islands)
        return self.islands[index]

    def read(self, volume: Hashable, key: Hashable) -> Event:
        """Read through the owning island's controller — the only path."""
        return self.home_of(volume).read((volume, key))
