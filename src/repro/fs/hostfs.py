"""Host-side shared-disk file system — §4's first deployment option.

"First, host computers could access the storage pool as a block device and
deploy parallel file systems, such as GFS [19, 20, 25], on the host
computer."  This module builds that alternative: every host mounts the
same virtual disk, and a GFS-style **distributed lock manager** arbitrates
access with per-inode locks that are *cached* by the last holder and
revoked on conflict.

The integrated PFS (§4's second option, `repro.fs.pfs` + the coherent
cache) avoids the lock ping-pong this design suffers under cross-host
write sharing — the comparison is the `bench_ablation_hostfs` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Hashable

from ..sim.events import Event
from ..sim.resources import Store
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class LockMode(Enum):
    """DLM grant modes: many SHARED readers or one EXCLUSIVE writer."""
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _LockState:
    """Who currently holds a cached grant on one resource."""

    holders: dict[str, LockMode] = field(default_factory=dict)
    queue: list = field(default_factory=list)  # (host, mode, event)
    converting: bool = False


def _compatible(state: _LockState, host: str, mode: LockMode) -> bool:
    others = {h: m for h, m in state.holders.items() if h != host}
    if not others:
        return True
    if mode is LockMode.EXCLUSIVE:
        return False
    return all(m is LockMode.SHARED for m in others.values())


class DistributedLockManager:
    """GFS-style lock server with grant caching and revocation callbacks.

    * A host that already holds a compatible grant proceeds instantly —
      that is the lock-caching fast path.
    * A conflicting request costs a message round trip to the DLM plus a
      revoke round trip to every conflicting holder (who must flush dirty
      state first, modeled by the ``flush_time`` callback).
    """

    def __init__(self, sim: "Simulator", message_rtt: float = us(400),
                 flush_time: Callable[[str, Hashable], float] | None = None) -> None:
        self.sim = sim
        self.message_rtt = message_rtt
        self.flush_time = flush_time or (lambda host, resource: 0.0)
        self._locks: dict[Hashable, _LockState] = {}
        self.lock_messages = 0
        self.revocations = 0
        self.cache_hits = 0

    def acquire(self, host: str, resource: Hashable, mode: LockMode) -> Event:
        """Obtain (or upgrade) a grant; the event fires when usable."""
        state = self._locks.setdefault(resource, _LockState())
        held = state.holders.get(host)
        if held is mode or (held is LockMode.EXCLUSIVE
                            and mode is LockMode.SHARED):
            self.cache_hits += 1
            hit = Event(self.sim)
            hit.succeed("cached")
            return hit
        return self.sim.process(self._acquire(host, resource, mode, state),
                                name="dlm.acquire")

    def _acquire(self, host: str, resource: Hashable, mode: LockMode,
                 state: _LockState):
        # Ask the lock server.
        self.lock_messages += 1
        yield self.sim.timeout(self.message_rtt)
        while state.converting or not _compatible(state, host, mode):
            if not state.converting:
                state.converting = True
                conflicting = [h for h, m in state.holders.items()
                               if h != host and (
                                   mode is LockMode.EXCLUSIVE
                                   or m is LockMode.EXCLUSIVE)]
                # Revoke every conflicting cached grant.
                for victim in conflicting:
                    self.revocations += 1
                    self.lock_messages += 1
                    yield self.sim.timeout(self.message_rtt)
                    flush = self.flush_time(victim, resource)
                    if flush > 0:
                        yield self.sim.timeout(flush)
                    state.holders.pop(victim, None)
                state.converting = False
            else:
                yield self.sim.timeout(self.message_rtt / 2)
        state.holders[host] = mode
        return "granted"

    def holder_count(self, resource: Hashable) -> int:
        """How many hosts currently cache a grant on the resource."""
        state = self._locks.get(resource)
        return len(state.holders) if state else 0

    def release(self, host: str, resource: Hashable) -> None:
        """Voluntarily drop a cached grant (e.g. on unmount)."""
        state = self._locks.get(resource)
        if state:
            state.holders.pop(host, None)


class HostSharedFileSystem:
    """GFS-like FS: per-inode DLM locks over a shared block device.

    ``device_read`` / ``device_write`` take a byte count and return an
    event — the shared virtual disk underneath all hosts.
    """

    def __init__(self, sim: "Simulator",
                 device_read: Callable[[int], Event],
                 device_write: Callable[[int], Event],
                 block_size: int = 64 * 1024,
                 message_rtt: float = us(400),
                 dirty_flush_time: float = 0.004) -> None:
        self.sim = sim
        self.device_read = device_read
        self.device_write = device_write
        self.block_size = block_size
        self.dirty_flush_time = dirty_flush_time
        self._dirty: dict[tuple[str, Hashable], bool] = {}
        self.dlm = DistributedLockManager(
            sim, message_rtt=message_rtt, flush_time=self._flush_time)
        self.reads = 0
        self.writes = 0

    def _flush_time(self, host: str, resource: Hashable) -> float:
        """A revoked holder must write back its dirty blocks first."""
        if self._dirty.pop((host, resource), False):
            return self.dirty_flush_time
        return 0.0

    def read(self, host: str, path: str, nbytes: int | None = None) -> Event:
        """Read under a SHARED inode lock (acquiring it if needed)."""
        return self._io(host, path, "read", nbytes or self.block_size)

    def write(self, host: str, path: str, nbytes: int | None = None) -> Event:
        """Write under an EXCLUSIVE inode lock (revoking other holders)."""
        return self._io(host, path, "write", nbytes or self.block_size)

    def _io(self, host: str, path: str, op: str, nbytes: int) -> Event:
        return self.sim.process(self._serve(host, path, op, nbytes),
                                name=f"hostfs.{op}")

    def _serve(self, host: str, path: str, op: str, nbytes: int):
        mode = LockMode.EXCLUSIVE if op == "write" else LockMode.SHARED
        yield self.dlm.acquire(host, path, mode)
        if op == "read":
            yield self.device_read(nbytes)
            self.reads += 1
        else:
            yield self.device_write(nbytes)
            self._dirty[(host, path)] = True
            self.writes += 1
        return nbytes
