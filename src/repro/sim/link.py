"""Link models: fluid fair-share pipes and store-and-forward FCFS pipes.

The paper's throughput claims (Figure 1, §2.1, §8) are contention arguments:
a 2 Gb/s Fibre Channel port shared by several streams gives each a fair
fraction; four blades aggregating can fill a 10 Gb/s port.  The
:class:`FairShareLink` implements the classic fluid-flow generalized
processor sharing model: at any instant, the ``B`` bytes/s of capacity is
split equally among active transfers, and the model re-solves completion
times whenever the active set changes.

The fair-share model runs in *virtual time*: with equal weights every
active flow drains at the same instantaneous rate, so a flow admitted when
``V`` per-flow bytes had been served finishes when ``V`` reaches admission
``V`` plus its size.  Completions therefore live in a min-heap keyed by
finish virtual time — admission and completion are O(log n) and a share
rebalance is O(1), instead of the O(n) per-flow scans of the naive model.
Share recomputation is additionally *batched*: N transfers admitted at one
instant trigger a single deferred rebalance, not N.

:class:`FcfsLink` is the simpler store-and-forward alternative (one transfer
at a time); the ablation benchmark compares the two on the Figure 1 setup.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING

from ..obs.timeseries import bind
from .events import Event
from .faults import LinkDownError
from .resources import Resource
from .stats import TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

_EPS_BYTES = 1e-6


class _Flow:
    """One in-flight transfer on a fluid link."""
    __slots__ = ("done", "nbytes")

    def __init__(self, nbytes: float, done: Event) -> None:
        self.nbytes = nbytes
        self.done = done


class FairShareLink:
    """A bidirectionally-shared fluid link of fixed capacity.

    All concurrent transfers share ``bandwidth`` equally (max-min fair with
    equal weights).  Each transfer's completion event fires after its bytes
    have drained plus the one-way propagation ``latency``.

    The link records utilization (time-weighted fraction of capacity in use)
    and total bytes carried, for hot-spot and saturation reporting.
    """

    def __init__(self, sim: "Simulator", bandwidth: float,
                 latency: float = 0.0, name: str = "link") -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        #: Virtual time: bytes served *per active flow* since creation.
        self._virtual = 0.0
        #: Min-heap of (finish_virtual, admission_seq, flow).
        self._flow_heap: list[tuple[float, int, _Flow]] = []
        self._flow_seq = count()
        self._last_update = sim.now
        self._timer_gen = count()
        self._active_timer = -1
        self._rebalance_pending = False
        self.total_bytes = 0.0
        self.failed = False
        #: ``fn(link, failed)`` callbacks fired on actual up/down
        #: transitions (never on redundant fail/repair calls): synchronous
        #: bookkeeping with no kernel events, so subscribers (reconcile
        #: daemons, outage accounting) stay fingerprint-neutral.
        self.on_state_change: list = []
        self.utilization = TimeWeighted(sim)
        self._bytes = bind(sim, "link.bytes", link=name)

    # -- failure control -------------------------------------------------------

    def fail(self) -> None:
        """Flap the link down: new transfers fail with LinkDownError.

        In-flight flows keep draining — a flap severs admission, and the
        fluid model has no per-packet granularity to lose.  Callers that
        need harsher semantics can interrupt their own waiting processes.
        """
        if self.failed:
            return
        self.failed = True
        for fn in self.on_state_change:
            fn(self, True)

    def repair(self) -> None:
        """Bring the link back up; admission resumes immediately."""
        if not self.failed:
            return
        self.failed = False
        for fn in self.on_state_change:
            fn(self, False)

    # -- public API -----------------------------------------------------------

    def transfer(self, nbytes: float) -> Event:
        """Start moving ``nbytes`` across the link; event fires on delivery."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = Event(self.sim)
        if self.failed:
            done.fail(LinkDownError(f"link {self.name} is down"))
            return done
        if nbytes == 0:
            self._deliver(done, self.latency)
            return done
        if self._bytes is not None:
            self._bytes.record(nbytes)
        self._advance()
        heappush(self._flow_heap,
                 (self._virtual + nbytes, next(self._flow_seq),
                  _Flow(nbytes, done)))
        self.utilization.record(1.0)
        # Batched rebalance: N transfers arriving at one instant trigger a
        # single share recomputation (a zero-delay deferred call) instead of
        # N, so same-instant admission bursts cost one rebalance per event.
        if not self._rebalance_pending:
            self._rebalance_pending = True
            self.sim.call_in(0.0, self._rebalance)
        return done

    def mean_utilization(self) -> float:
        """Time-weighted average busy fraction since creation."""
        return self.utilization.mean()

    # -- fluid machinery -------------------------------------------------------

    def _rebalance(self) -> None:
        self._rebalance_pending = False
        self._advance()
        self._reschedule()

    def _advance(self) -> None:
        """Advance virtual time for the wall-clock elapsed; pop finishers.

        No simulated time elapsed means no bytes drained: any flow that was
        due finished when the clock last moved, so repeated same-instant
        calls (transfer bursts, stale wake-ups) return immediately.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed <= 0.0:
            return
        self._last_update = now
        heap = self._flow_heap
        if not heap:
            return
        self._virtual += self.bandwidth / len(heap) * elapsed
        horizon = self._virtual + _EPS_BYTES
        if heap[0][0] <= horizon:
            latency = self.latency
            while heap and heap[0][0] <= horizon:
                flow = heappop(heap)[2]
                self.total_bytes += flow.nbytes
                self._deliver(flow.done, latency)
            if not heap:
                self.utilization.record(0.0)

    def _reschedule(self) -> None:
        """Plan a wake-up at the earliest projected flow completion."""
        self._active_timer = next(self._timer_gen)
        heap = self._flow_heap
        if not heap:
            return
        my_timer = self._active_timer
        share = self.bandwidth / len(heap)
        delay = (heap[0][0] - self._virtual) / share
        # Float-error residues can project a finish time below the clock's
        # representable resolution, which would re-fire the wake-up at the
        # same instant forever.  Floor the delay a few ulps above `now` so
        # time always advances; the next _advance sweeps the residue.
        floor = max(abs(self.sim.now) * 1e-15, 1e-12)
        if delay < floor:
            delay = floor

        def wake() -> None:
            if my_timer != self._active_timer:
                return  # superseded by a newer state change
            self._advance()
            self._reschedule()

        self.sim.call_in(delay, wake)

    def _deliver(self, done: Event, latency: float) -> None:
        if latency <= 0:
            done.succeed()
        else:
            self.sim.call_in(latency, done.succeed)


class FcfsLink:
    """A store-and-forward link: one transfer occupies it at a time.

    Transfers queue FIFO; each takes ``nbytes / bandwidth`` of link time and
    then ``latency`` of propagation.  Simpler but pessimistic for concurrent
    small transfers — kept as an ablation against :class:`FairShareLink`.
    """

    def __init__(self, sim: "Simulator", bandwidth: float,
                 latency: float = 0.0, name: str = "link") -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._slot = Resource(sim, capacity=1)
        self.total_bytes = 0.0
        self._bytes = bind(sim, "link.bytes", link=name)

    def transfer(self, nbytes: float) -> Event:
        """Queue ``nbytes``; the returned event fires on delivery."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if self._bytes is not None and nbytes > 0:
            self._bytes.record(nbytes)
        return self.sim.process(self._run(nbytes), name=f"{self.name}.xfer")

    def _run(self, nbytes: float):
        req = self._slot.request()
        yield req
        try:
            yield self.sim.timeout(nbytes / self.bandwidth)
            self.total_bytes += nbytes
        finally:
            self._slot.release(req)
        if self.latency > 0:
            yield self.sim.timeout(self.latency)
