"""I/O load balancing across controller blades (§2.2, §6.3).

"Load balancing of I/O operations across controllers ensures sustained
performance without traditional bottlenecks."  The balancer picks the live
blade with the fewest outstanding operations (join-shortest-queue), which
is what eliminates controller hot spots relative to the traditional
static-ownership baseline.
"""

from __future__ import annotations

from contextlib import contextmanager

from .membership import ClusterMembership


class NoBladesAvailableError(Exception):
    """Every blade is down or draining."""


class LoadBalancer:
    """Join-shortest-queue dispatch with imbalance reporting."""

    def __init__(self, membership: ClusterMembership) -> None:
        self.membership = membership
        self.in_flight: dict[int, int] = {
            bid: 0 for bid in membership.blades}
        self.dispatched: dict[int, int] = {
            bid: 0 for bid in membership.blades}
        self._rr = 0

    def pick(self) -> int:
        """Blade for the next request: least loaded, round-robin on ties."""
        live = self.membership.live_ids()
        if not live:
            raise NoBladesAvailableError("no live controller blades")
        self._rr += 1
        rr, n, in_flight = self._rr, len(live), self.in_flight
        # min() over the key (in_flight, (bid + rr) % n), first minimum
        # winning, written out: this runs once per request.
        best = live[0]
        best_load = in_flight.get(best, 0)
        best_turn = (best + rr) % n
        for bid in live:
            load = in_flight.get(bid, 0)
            if load > best_load:
                continue
            turn = (bid + rr) % n
            if load < best_load or turn < best_turn:
                best, best_load, best_turn = bid, load, turn
        return best

    def start(self, blade_id: int) -> None:
        """Record an operation dispatched to a blade."""
        self.in_flight[blade_id] = self.in_flight.get(blade_id, 0) + 1
        self.dispatched[blade_id] = self.dispatched.get(blade_id, 0) + 1

    def finish(self, blade_id: int) -> None:
        """Record an operation's completion on a blade."""
        count = self.in_flight.get(blade_id, 0)
        if count <= 0:
            raise RuntimeError(f"finish() without start() on blade {blade_id}")
        self.in_flight[blade_id] = count - 1

    @contextmanager
    def track(self, blade_id: int):
        """Scope an operation's in-flight accounting."""
        self.start(blade_id)
        try:
            yield
        finally:
            self.finish(blade_id)

    def idle(self, blade_id: int) -> bool:
        """True when the blade has no in-flight operations."""
        return self.in_flight.get(blade_id, 0) == 0

    # -- hot-spot reporting -------------------------------------------------------------

    def imbalance(self) -> float:
        """Peak-to-mean ratio of dispatched work; 1.0 = perfectly even.

        The E3 experiment contrasts this against the partitioned baseline,
        where the hot controller's ratio explodes with skew.
        """
        counts = [self.dispatched.get(bid, 0) for bid in self.membership.blades]
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0
