"""The parallel file system integrated onto the controller blades (§4).

Files are striped across controller blades at ``stripe_unit`` granularity
so "many I/O streams [can] access the same data without performance
degradation"; each file's data is demand-mapped from the shared pool and
carries its own policy metadata.  The PFS hands the I/O path three things:
the inode (policy), the cache key of each file block, and the blade that
should service it under the striping map.
"""

from __future__ import annotations

from ..virt.allocator import Allocator
from ..virt.dmsd import DemandMappedDevice
from .metadata import FILE_ADDRESS_SPACE, Inode
from .namespace import FsError, Namespace
from .policies import DEFAULT_POLICY, FilePolicy, PolicyLimits


class ParallelFileSystem:
    """Namespace + demand-mapped file data + striping map + policy admin."""

    def __init__(self, allocator: Allocator, blade_ids: list[int],
                 stripe_unit: int = 64 * 1024,
                 limits: PolicyLimits | None = None,
                 name: str = "pfs") -> None:
        if not blade_ids:
            raise ValueError("PFS needs at least one blade")
        if stripe_unit <= 0:
            raise ValueError(f"stripe_unit must be > 0, got {stripe_unit}")
        self.allocator = allocator
        self.blade_ids = list(blade_ids)
        self.stripe_unit = stripe_unit
        self.limits = limits or PolicyLimits()
        self.namespace = Namespace()
        self.name = name

    # -- file lifecycle --------------------------------------------------------------

    def create(self, path: str, policy: FilePolicy = DEFAULT_POLICY,
               owner: str = "", now: float = 0.0) -> Inode:
        """Create a file; the requested policy is clamped by admin limits."""
        effective = self.limits.clamp(policy)
        inode = self.namespace.create(path, effective, owner, now)
        inode.backing = DemandMappedDevice(
            f"{self.name}:{path}", FILE_ADDRESS_SPACE, self.allocator)
        return inode

    def open(self, path: str) -> Inode:
        """Resolve a path to its file inode; FsError for directories."""
        inode = self.namespace.lookup(path)
        if not inode.is_file:
            raise FsError(f"not a file: {path!r}")
        return inode

    def unlink(self, path: str) -> None:
        """Remove a file and release its demand-mapped pages."""
        inode = self.namespace.unlink(path)
        if inode.backing is not None:
            inode.backing.delete()

    def set_policy(self, path: str, policy: FilePolicy) -> FilePolicy:
        """Change behaviour 'at any time'; returns the clamped result."""
        inode = self.open(path)
        effective = self.limits.clamp(policy)
        inode.set_policy(effective)
        return effective

    # -- data (functional layer) --------------------------------------------------------

    def write(self, path: str, offset: int, nbytes: int,
              now: float = 0.0) -> Inode:
        """Record a write: maps pages on demand, advances EOF and mtime."""
        inode = self.open(path)
        assert inode.backing is not None
        inode.backing.write(offset, nbytes)
        inode.size = max(inode.size, offset + nbytes)
        inode.modified_at = now
        return inode

    # -- striping map (timing layer hooks) -------------------------------------------------

    def block_key(self, inode: Inode, block: int) -> tuple[str, int, int]:
        """Cluster-wide cache key for one stripe unit of a file."""
        return (self.name, inode.ino, block)

    def blade_for_block(self, inode: Inode, block: int) -> int:
        """Round-robin striping: which blade owns this stripe unit.

        Deterministic in (inode, block) so every client computes the same
        map — the property that lets multiple clusters "instigate identical
        content streams without replicating the content" (§2.3).
        """
        start = inode.ino % len(self.blade_ids)
        return self.blade_ids[(start + block) % len(self.blade_ids)]

    def blocks_for_range(self, offset: int, nbytes: int) -> list[int]:
        """Stripe-unit indices covering a byte range."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        if nbytes == 0:
            return []
        first = offset // self.stripe_unit
        last = (offset + nbytes - 1) // self.stripe_unit
        return list(range(first, last + 1))

    # -- reporting ----------------------------------------------------------------------------

    def total_mapped_bytes(self) -> int:
        """Physical bytes consumed by every file in the namespace."""
        return sum(inode.mapped_bytes()
                   for _path, inode in self.namespace.walk_files())
