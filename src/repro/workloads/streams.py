"""Sequential stream workloads: big-iron feeds and clustered clients (§1, §2).

Two client shapes the introduction names: "individual fast streams that
feed heavy iron systems and many simultaneous streams that feed clustered
systems."  Clients are closed-loop: each keeps a bounded number of
requests outstanding and issues the next when one completes, which is how
real supercomputer I/O subsystems behave.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..sim.events import Event
from ..sim.stats import Tally

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.process import Process

#: issue(block_index) -> completion Event for one request
IssueFn = Callable[[int], Event]


class SequentialStream:
    """One closed-loop sequential reader with a request window."""

    def __init__(self, sim: "Simulator", issue: IssueFn, blocks: int,
                 block_size: int, window: int = 4,
                 start_block: int = 0, name: str = "stream") -> None:
        if blocks < 1 or window < 1:
            raise ValueError("blocks and window must be >= 1")
        self.sim = sim
        self.issue = issue
        self.blocks = blocks
        self.block_size = block_size
        self.window = window
        self.start_block = start_block
        self.name = name
        self.latency = Tally()
        self.completed = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def run(self) -> "Process":
        """Start the stream as a simulation process; returns its completion."""
        return self.sim.process(self._run(), name=self.name)

    def _run(self):
        from ..sim.resources import Resource
        self.started_at = self.sim.now
        slots = Resource(self.sim, capacity=self.window)
        inflight: list[Event] = []
        for i in range(self.blocks):
            req = slots.request()
            yield req
            inflight.append(self.sim.process(
                self._one(self.start_block + i, slots, req),
                name=f"{self.name}.req"))
        yield self.sim.all_of(inflight)
        self.finished_at = self.sim.now

    def _one(self, block: int, slots, req):
        start = self.sim.now
        try:
            yield self.issue(block)
            self.latency.record(self.sim.now - start)
            self.completed += 1
        finally:
            slots.release(req)

    def throughput(self) -> float:
        """Mean delivered bytes/second over the stream's life."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        elapsed = self.finished_at - self.started_at
        return self.completed * self.block_size / elapsed if elapsed else 0.0


def run_client_fleet(sim: "Simulator", count: int,
                     make_issue: Callable[[int], IssueFn],
                     blocks_per_client: int, block_size: int,
                     window: int = 2) -> list[SequentialStream]:
    """Launch ``count`` concurrent sequential clients (a cluster job).

    ``make_issue(client_index)`` builds each client's request function so
    clients can target different files/volumes/blades.
    """
    streams = []
    for i in range(count):
        stream = SequentialStream(sim, make_issue(i), blocks_per_client,
                                  block_size, window=window,
                                  start_block=0, name=f"client{i}")
        stream.run()
        streams.append(stream)
    return streams


def aggregate_throughput(streams: list[SequentialStream]) -> float:
    """Total bytes delivered / wall-clock of the whole fleet."""
    done = [s for s in streams if s.finished_at is not None]
    if not done:
        return 0.0
    start = min(s.started_at for s in done)
    end = max(s.finished_at for s in done)
    total = sum(s.completed * s.block_size for s in done)
    return total / (end - start) if end > start else 0.0
