"""HPC checkpoint workload: synchronized burst writes from many ranks.

The paper's clients include clustered systems whose dominant write
pattern (then and now) is the periodic checkpoint: every rank dumps its
state more or less simultaneously, the storage system absorbs a massive
synchronized burst, then the machine computes quietly until the next one.
The generator measures what applications feel: time stolen from
computation by each checkpoint barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..sim.events import Event
from ..sim.stats import Tally

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.process import Process

#: write(rank, nbytes) -> completion Event
CheckpointWrite = Callable[[int, int], Event]


class CheckpointWorkload:
    """N ranks alternating compute phases with synchronized dumps."""

    def __init__(self, sim: "Simulator", write: CheckpointWrite,
                 ranks: int, bytes_per_rank: int,
                 compute_time: float, checkpoints: int,
                 chunk: int = 1 << 20) -> None:
        if ranks < 1 or checkpoints < 1:
            raise ValueError("ranks and checkpoints must be >= 1")
        if bytes_per_rank < 1 or compute_time < 0:
            raise ValueError("bytes_per_rank >= 1, compute_time >= 0")
        self.sim = sim
        self.write = write
        self.ranks = ranks
        self.bytes_per_rank = bytes_per_rank
        self.compute_time = compute_time
        self.checkpoints = checkpoints
        self.chunk = chunk
        self.checkpoint_times = Tally()
        self.total_compute = 0.0
        self.finished_at: float | None = None

    def run(self) -> "Process":
        """Start the compute/checkpoint cycle; returns its completion."""
        return self.sim.process(self._run(), name="checkpoint")

    def _run(self):
        for _round in range(self.checkpoints):
            yield self.sim.timeout(self.compute_time)
            self.total_compute += self.compute_time
            start = self.sim.now
            # Every rank dumps concurrently; the barrier completes when the
            # slowest rank's data is safe.
            rank_events = [self._rank_dump(rank)
                           for rank in range(self.ranks)]
            yield self.sim.all_of(rank_events)
            self.checkpoint_times.record(self.sim.now - start)
        self.finished_at = self.sim.now

    def _rank_dump(self, rank: int) -> Event:
        def run():
            remaining = self.bytes_per_rank
            while remaining > 0:
                take = min(self.chunk, remaining)
                yield self.write(rank, take)
                remaining -= take

        return self.sim.process(run(), name=f"ckpt.rank{rank}")

    def efficiency(self) -> float:
        """Fraction of wall-clock the machine spent computing — the HPC
        center's bottom line for checkpoint overhead."""
        if self.finished_at is None or self.finished_at == 0:
            return 0.0
        return self.total_compute / self.finished_at
