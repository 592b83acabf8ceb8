"""Directory-based cache coherence across controller blades.

"System software would maintain cache, virtual disk, and file system
coherence across multiple controller blades" (§2.1), citing the classic
shared-memory coherence literature [26].  The directory tracks, per block:
the set of SHARED holders, the MODIFIED owner (at most one), and the
pinned replica holders created by N-way write replication (§6.1).

The directory is *metadata only* — actual block movement (and its cost)
happens on the interconnect in :mod:`repro.cache.pool`.  Methods here
return the actions the caller must pay for (invalidation messages, the
blade to fetch from), keeping protocol decisions testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .block_cache import BlockKey

#: Observer signature: ``(kind, key, **attrs)`` — e.g.
#: ``("invalidate", key, victims=2)`` or ``("remote_fetch", key, source=1)``.
#: The directory is sim-agnostic, so timestamping is the observer's job.
DirectoryObserver = Callable[..., None]


@dataclass
class DirEntry:
    """Who holds a block, and in what role."""

    sharers: set[int] = field(default_factory=set)
    owner: int | None = None           # blade holding the dirty copy
    replica_holders: set[int] = field(default_factory=set)
    dirty: bool = False

    def holders(self) -> set[int]:
        """Every blade holding any copy (sharer, owner, or replica)."""
        out = set(self.sharers) | set(self.replica_holders)
        if self.owner is not None:
            out.add(self.owner)
        return out


@dataclass(frozen=True)
class CoherenceActions:
    """What the requesting blade must do before proceeding."""

    invalidate: tuple[int, ...] = ()   # blades to send invalidations to
    fetch_from: int | None = None      # blade to copy the block from
    writeback_from: int | None = None  # dirty owner whose data must move


class Directory:
    """The cluster-wide block directory (MSI-style, with replica pins)."""

    def __init__(self, observer: DirectoryObserver | None = None) -> None:
        self._entries: dict[BlockKey, DirEntry] = {}
        self.invalidations_sent = 0
        self.remote_fetches = 0
        self.observer = observer

    def entry(self, key: BlockKey) -> DirEntry | None:
        """The directory record for a key, or None if untracked."""
        return self._entries.get(key)

    def holders(self, key: BlockKey) -> set[int]:
        """Every blade holding any copy (sharer, owner, or replica)."""
        entry = self._entries.get(key)
        return entry.holders() if entry else set()

    # -- protocol transitions ------------------------------------------------------

    def acquire_shared(self, blade: int, key: BlockKey) -> CoherenceActions:
        """Blade wants a readable copy.

        A dirty owner elsewhere must supply the data (owner→requester
        transfer); the owner's copy stays valid but the block remains dirty
        until destaged.  Otherwise any existing holder can supply it.
        """
        entry = self._entries.setdefault(key, DirEntry())
        actions: CoherenceActions
        if entry.owner is not None and entry.owner != blade:
            actions = CoherenceActions(fetch_from=entry.owner,
                                       writeback_from=entry.owner)
            entry.sharers.add(blade)
            self.remote_fetches += 1
            if self.observer is not None:
                self.observer("remote_fetch", key, source=entry.owner)
            return actions
        holders = entry.holders() - {blade}
        if holders:
            source = min(holders)  # deterministic choice
            entry.sharers.add(blade)
            self.remote_fetches += 1
            if self.observer is not None:
                self.observer("remote_fetch", key, source=source)
            return CoherenceActions(fetch_from=source)
        entry.sharers.add(blade)
        return CoherenceActions()

    def acquire_exclusive(self, blade: int, key: BlockKey) -> CoherenceActions:
        """Blade wants to write: every other copy must be invalidated."""
        entry = self._entries.setdefault(key, DirEntry())
        victims = tuple(sorted(entry.holders() - {blade}))
        fetch = None
        if entry.owner is not None and entry.owner != blade:
            fetch = entry.owner
        self.invalidations_sent += len(victims)
        if victims and self.observer is not None:
            self.observer("invalidate", key, victims=len(victims))
        entry.sharers.clear()
        entry.replica_holders.clear()
        entry.owner = blade
        entry.dirty = True
        return CoherenceActions(invalidate=victims, fetch_from=fetch)

    def register_replicas(self, key: BlockKey, holders: set[int]) -> None:
        """Record the pinned N-way replica holders of a dirty block."""
        entry = self._entries.setdefault(key, DirEntry())
        entry.replica_holders = set(holders)

    def destaged(self, key: BlockKey) -> set[int]:
        """Dirty data reached disk: owner+replicas demote to clean sharers.

        Returns the blades whose pins may now be released.
        """
        entry = self._entries.get(key)
        if entry is None:
            return set()
        released = set(entry.replica_holders)
        if entry.owner is not None:
            entry.sharers.add(entry.owner)
            released.add(entry.owner)
        entry.sharers |= entry.replica_holders
        entry.replica_holders.clear()
        entry.owner = None
        entry.dirty = False
        return released

    def evicted(self, blade: int, key: BlockKey) -> None:
        """A clean copy left some blade's cache."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.sharers.discard(blade)
        if not entry.holders():
            del self._entries[key]

    # -- failure handling --------------------------------------------------------------

    def blade_failed(self, blade: int) -> tuple[list[BlockKey], list[BlockKey]]:
        """Remove a blade everywhere.

        Returns ``(salvaged, lost)``: dirty blocks whose owner died but a
        replica survived (one replica is promoted to owner), and dirty
        blocks with no surviving copy — real data loss.
        """
        salvaged: list[BlockKey] = []
        lost: list[BlockKey] = []
        dead: list[BlockKey] = []
        for key, entry in self._entries.items():
            entry.sharers.discard(blade)
            had_replica = blade in entry.replica_holders
            entry.replica_holders.discard(blade)
            if entry.owner == blade:
                if entry.replica_holders:
                    entry.owner = min(entry.replica_holders)
                    entry.replica_holders.discard(entry.owner)
                    salvaged.append(key)
                else:
                    entry.owner = None
                    entry.dirty = False
                    lost.append(key)
            elif had_replica and entry.dirty and entry.owner is None:
                # Shouldn't happen (owner tracked), defensive.
                lost.append(key)
            if not entry.holders():
                dead.append(key)
        for key in dead:
            del self._entries[key]
        return salvaged, lost

    def __len__(self) -> int:
        return len(self._entries)
