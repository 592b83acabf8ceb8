"""Cluster membership: who is up, and how fast failures are noticed.

The blade cluster is the paper's availability substrate (§6.3, "a
clustering approach to total fault tolerance... derives in part from the
VAX Cluster model").  Membership watches blade state transitions and
notifies handlers after a configurable failure-detection delay (heartbeat
timeout) — instantaneous detection would overstate availability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..hardware.blade import BladeState, ControllerBlade
from ..sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

MembershipHandler = Callable[[ControllerBlade, str], None]


class ClusterMembership:
    """Tracks live blades and delivers failure/join notifications."""

    def __init__(self, sim: "Simulator", blades: list[ControllerBlade],
                 detection_delay: float = ms(500)) -> None:
        self.sim = sim
        self.blades: dict[int, ControllerBlade] = {}
        self.detection_delay = detection_delay
        self._handlers: list[MembershipHandler] = []
        self.transitions: list[tuple[float, int, str]] = []
        #: Sorted ids of UP blades, derived on demand and dropped on every
        #: state transition and join (``_on_blade_state``, ``_register``).
        self._live_ids: list[int] | None = None
        #: State transitions seen per blade id: a delayed failure notice
        #: is stale once its blade has moved on.
        self._changes: dict[int, int] = {}
        for blade in blades:
            self._register(blade)

    def _register(self, blade: ControllerBlade) -> None:
        self.blades[blade.blade_id] = blade
        self._live_ids = None
        blade.observe(self._on_blade_state)

    def add_blade(self, blade: ControllerBlade) -> None:
        """Incremental scale-out (§6.3: capacity 'added at any time')."""
        if blade.blade_id in self.blades:
            raise ValueError(f"blade {blade.blade_id} already in cluster")
        self._register(blade)
        self._notify(blade, "joined")

    def on_change(self, handler: MembershipHandler) -> None:
        """Register a handler for (blade, event) membership transitions."""
        self._handlers.append(handler)

    # -- state ---------------------------------------------------------------------

    def live(self) -> list[ControllerBlade]:
        """Blades currently UP."""
        return [b for b in self.blades.values() if b.state is BladeState.UP]

    def live_ids(self) -> list[int]:
        """Sorted ids of blades currently UP (shared: do not mutate)."""
        if self._live_ids is None:
            self._live_ids = sorted(b.blade_id for b in self.live())
        return self._live_ids

    @property
    def size(self) -> int:
        return len(self.blades)

    def quorum(self) -> bool:
        """Majority of configured blades are up."""
        return len(self.live()) * 2 > len(self.blades)

    # -- notification plumbing --------------------------------------------------------

    def _on_blade_state(self, blade: ControllerBlade) -> None:
        # Drop the live set before any handler below can read it.
        self._live_ids = None
        changes = self._changes[blade.blade_id] = (
            self._changes.get(blade.blade_id, 0) + 1)
        state = blade.state
        if state is BladeState.FAILED:
            # Failure is noticed only after heartbeats time out.
            self.sim.process(self._delayed_notify(blade, "failed", changes),
                             name="membership.detect")
        elif state is BladeState.UP:
            self._notify(blade, "joined")
        elif state is BladeState.DRAINING:
            self._notify(blade, "draining")

    def _delayed_notify(self, blade: ControllerBlade, event: str,
                        changes: int):
        yield self.sim.timeout(self.detection_delay)
        # Still down since *this* failure: a blade that rejoined and went
        # down again inside the delay is reported by the later notice.
        if self._changes[blade.blade_id] == changes:
            self._notify(blade, event)

    def _notify(self, blade: ControllerBlade, event: str) -> None:
        self.transitions.append((self.sim.now, blade.blade_id, event))
        for handler in list(self._handlers):
            handler(blade, event)
