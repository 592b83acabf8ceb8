"""Queueing resources: capacity-limited servers and stores.

These are the building blocks for modeling contention at disks, CPUs, bus
slots, and switch ports.  All queues are FIFO (or priority-ordered for
:class:`PriorityResource`) and deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot.

    Yields control back when granted.  Must be paired with ``release`` —
    use ``Resource.acquire`` inside processes for the common pattern.
    """

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """A server pool with ``capacity`` identical slots and a FIFO queue.

    >>> disk_slot = Resource(sim, capacity=1)
    >>> def io(job):
    ...     req = disk_slot.request()
    ...     yield req
    ...     try:
    ...         yield sim.timeout(service_time)
    ...     finally:
    ...         disk_slot.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        # Deque so _pop_waiter is O(1); list.pop(0) shifts the whole queue,
        # an O(n) tax that compounds under megascale contention.
        self._waiting: deque[Request] = deque()

    @property
    def queue_length(self) -> int:
        """Number of requests waiting (not yet granted)."""
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self, priority)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed()
        else:
            self._enqueue_waiter(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted slot, waking the next waiter."""
        if req.resource is not self:
            raise ValueError("request was not issued against this resource")
        if not req.triggered:
            # The request never got a slot; just remove it from the queue.
            self._cancel_waiter(req)
            return
        self.in_use -= 1
        if self.in_use < 0:
            raise RuntimeError("release() without matching granted request")
        self._grant_next()

    def _grant_next(self) -> None:
        while self.in_use < self.capacity:
            nxt = self._pop_waiter()
            if nxt is None:
                break
            self.in_use += 1
            nxt.succeed()

    # -- queue policy hooks (overridden by PriorityResource) -----------------

    def _enqueue_waiter(self, req: Request) -> None:
        self._waiting.append(req)

    def _pop_waiter(self) -> Request | None:
        return self._waiting.popleft() if self._waiting else None

    def _cancel_waiter(self, req: Request) -> None:
        try:
            self._waiting.remove(req)
        except ValueError:
            pass


class PriorityResource(Resource):
    """A resource whose queue is ordered by (priority, arrival).

    Lower priority values are served first; rebuild traffic can yield to
    foreground I/O by requesting with a larger priority number.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        super().__init__(sim, capacity)
        self._heap: list[tuple[float, int, Request]] = []
        self._counter = count()
        self._cancelled: set[int] = set()

    @property
    def queue_length(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def _enqueue_waiter(self, req: Request) -> None:
        req._key = next(self._counter)  # type: ignore[attr-defined]
        heapq.heappush(self._heap, (req.priority, req._key, req))

    def _pop_waiter(self) -> Request | None:
        while self._heap:
            _prio, key, req = heapq.heappop(self._heap)
            if key in self._cancelled:
                self._cancelled.discard(key)
                continue
            return req
        return None

    def _cancel_waiter(self, req: Request) -> None:
        key = getattr(req, "_key", None)
        if key is not None:
            self._cancelled.add(key)


class Store:
    """An unbounded FIFO buffer of items with blocking get.

    Producers ``put`` items (never blocks); consumers yield ``get()`` and
    receive the oldest item.  Used for message queues between model actors.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # Deques keep put/get O(1) from both ends; ``items`` stays a public
        # FIFO (oldest first) exactly as the list was.
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)

