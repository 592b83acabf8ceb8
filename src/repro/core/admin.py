"""Automated policy administration and the single-pane management view.

§3: "policy and administration must be automated and integrated into the
virtualization"; §7.3: "actual management could be performed from
Web-based interfaces, allowing even a distributed IT team to interact
with the single system image."  The policy engine periodically applies
administrator-authored rules over file metadata (age-based tiering,
replication demotion, cache-priority decay); every action it takes is one
an administrator did not have to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from ..fs.metadata import Inode
from ..fs.pfs import ParallelFileSystem
from ..fs.policies import FilePolicy, ReplicationMode

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: rule(now, path, inode) -> replacement policy, or None to leave alone
PolicyRule = Callable[[float, str, Inode], FilePolicy | None]


def idle_demotion_rule(idle_seconds: float) -> PolicyRule:
    """Files untouched for ``idle_seconds`` lose their expensive wishes:
    replication drops to ASYNC (or NONE if already ASYNC) and cache
    priority decays to 0."""

    def rule(now: float, path: str, inode: Inode) -> FilePolicy | None:
        if now - inode.modified_at < idle_seconds:
            return None
        policy = inode.policy
        if policy.cache_priority == 0 \
                and policy.replication_mode is ReplicationMode.NONE:
            return None
        mode = policy.replication_mode
        sites = policy.replication_sites
        if mode is ReplicationMode.SYNC:
            mode = ReplicationMode.ASYNC
        elif mode is ReplicationMode.ASYNC:
            mode, sites = ReplicationMode.NONE, 0
        return replace(policy, cache_priority=0, replication_mode=mode,
                       replication_sites=sites)

    return rule


@dataclass
class AdminAction:
    """One automated action the policy engine took."""
    time: float
    path: str
    kind: str  # "policy" | "delete"
    detail: str


class AutoPolicyEngine:
    """Periodic rule evaluation over the whole namespace."""

    def __init__(self, sim: "Simulator", pfs: ParallelFileSystem,
                 interval: float = 3600.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.sim = sim
        self.pfs = pfs
        self.interval = interval
        self.rules: list[PolicyRule] = []
        #: (path prefix, max age in seconds) of each scratch area swept.
        self.scratch_rules: list[tuple[str, float]] = []
        self.actions: list[AdminAction] = []
        self._running = False

    def add_rule(self, rule: PolicyRule) -> None:
        """Install a policy rule."""
        self.rules.append(rule)

    def add_scratch_cleanup(self, prefix: str, max_age: float) -> None:
        """Unlink files under ``prefix`` unmodified for more than
        ``max_age`` seconds, at every pass."""
        self.scratch_rules.append((prefix, max_age))

    def start(self) -> None:
        """Begin periodic rule evaluation for the rest of the run."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._loop(), name="autopolicy")

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.run_once()

    def run_once(self) -> int:
        """One evaluation pass; returns the number of actions taken."""
        taken = 0
        now = self.sim.now
        for path, inode in self.pfs.namespace.walk_files():
            for rule in self.rules:
                new_policy = rule(now, path, inode)
                if new_policy is not None and new_policy != inode.policy:
                    effective = self.pfs.limits.clamp(new_policy)
                    inode.set_policy(effective)
                    self.actions.append(AdminAction(
                        now, path, "policy",
                        f"auto-demoted to {effective.replication_mode.value}"))
                    taken += 1
        for prefix, max_age in self.scratch_rules:
            for path, inode in self.pfs.namespace.walk_files():
                if path.startswith(prefix) \
                        and now - inode.modified_at > max_age:
                    self.pfs.unlink(path)
                    self.actions.append(AdminAction(
                        now, path, "delete", "scratch expired"))
                    taken += 1
        return taken

    def automation_count(self) -> int:
        """Actions an administrator did not have to perform by hand —
        the numerator of §3's storage-to-administrator ratio."""
        return len(self.actions)
