"""Statically partitioned controller caches — the pooled cache's baseline (§2.2).

Each block has a fixed home controller (hash placement); every request
must be served by that controller's CPU and private cache.  Under skewed
("hot data") workloads the home controller of the hot blocks saturates
while its neighbours idle — the hot-spot phenomenon §2 describes.
Contrast with :class:`repro.cache.pool.CacheCluster`, where any blade
serves any block and peer caches share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..cache.block_cache import BlockCache, BlockState
from ..hardware.blade import ControllerBlade
from ..sim.events import Event
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

from ..cache.pool import BackingRead


class PartitionedCacheArray:
    """N controllers, private caches, static block ownership."""

    def __init__(self, sim: "Simulator", blades: list[ControllerBlade],
                 backing_read: BackingRead,
                 block_size: int = 64 * 1024) -> None:
        if not blades:
            raise ValueError("need at least one controller")
        self.sim = sim
        self.blades = blades
        self.backing_read = backing_read
        self.block_size = block_size
        self.caches = {
            b.blade_id: BlockCache(max(1, b.cache_bytes // block_size),
                                   name=f"{b.name}.pcache")
            for b in blades
        }
        self.ops_by_blade: dict[int, int] = {b.blade_id: 0 for b in blades}

    def home_of(self, key: Hashable) -> ControllerBlade:
        """The fixed controller that owns this key (hash placement)."""
        from ..sim.rng import stable_hash
        index = stable_hash(key) % len(self.blades)
        return self.blades[index]

    def read(self, key: Hashable) -> Event:
        """Read through the block's home controller — no other choice."""
        return self.sim.process(self._serve(key), name="pcache.read")

    def _serve(self, key: Hashable):
        blade = self.home_of(key)
        self.ops_by_blade[blade.blade_id] += 1
        # Queue on the home controller's CPU (the hot-spot choke point).
        yield from blade.execute(blade.io_cpu_cost(self.block_size))
        cache = self.caches[blade.blade_id]
        if cache.lookup(key) is not None:
            yield self.sim.timeout(self.block_size / 3.2e9 + us(5))
            return "cache"
        yield self.backing_read(key, self.block_size)
        cache.insert(key, BlockState.SHARED)
        return "disk"

    def imbalance(self) -> float:
        """Peak-to-mean ops ratio across controllers."""
        counts = list(self.ops_by_blade.values())
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0
