"""Region work: the one engine behind rebuilds and backups.

§2.4 names "rebuilds, backups, and point-in-time copies" as management
services "load-balanced and distributed across controller blades", and
§6.3 asks that they survive a controller failure.  All of them are the
same shape: a list of items (stripes, pages) parceled into *regions* on a
shared queue, pulled by any number of workers.  A worker that dies
returns its region's unfinished tail to the queue for the survivors.

Only the per-item work differs, so a :class:`RegionJob` carries it as a
*step*: a generator function ``step(item, priority)`` that the worker
runs with ``yield from``, issuing I/O at the engine's priority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from ..obs.tracer import NULL_SPAN
from .process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .events import Event

#: step(item, priority) — the work for one item, run with ``yield from``.
Step = Callable[[Any, float], Generator["Event", Any, Any]]


class RegionJob:
    """One distributed job: its items, their regions, and its progress.

    ``name`` is the component its spans (``<name>.region``) and log
    records carry; ``labels`` join its ``job_started`` record.  The job
    is done when its last item is; :meth:`on_done` hooks that moment.
    """

    def __init__(self, name: str, items: Sequence, step: Step,
                 region: int = 64, **labels: Any) -> None:
        if region < 1:
            raise ValueError(f"region must be >= 1, got {region}")
        self.name = name
        self.step = step
        self.labels = labels
        self.span_name = f"{name}.region"
        self.total = len(items)
        self.pending: list[Sequence] = [
            items[i:i + region] for i in range(0, self.total, region)]
        self.completed = 0
        self.done = False
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._on_done: list[Callable[[], None]] = []

    @property
    def progress(self) -> float:
        """Fraction of items done, 0..1."""
        return self.completed / self.total if self.total else 1.0

    def eta(self, now: float) -> float | None:
        """Seconds to completion at the observed rate; 0 when done, None
        before any progress has been made."""
        if self.done:
            return 0.0
        if self.started_at is None or self.completed == 0:
            return None
        elapsed = now - self.started_at
        if elapsed <= 0:
            return None
        rate = self.completed / elapsed
        return (self.total - self.completed) / rate

    def on_done(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` when the job finishes, or now if it has."""
        if self.done:
            callback()
        else:
            self._on_done.append(callback)

    def checkout(self) -> Sequence | None:
        """Take the next region, or None when the queue is empty."""
        return self.pending.pop(0) if self.pending else None

    def give_back(self, region: Sequence) -> None:
        """Return an unfinished region (its worker died mid-region)."""
        self.pending.insert(0, region)


class RegionEngine:
    """Runs workers against :class:`RegionJob` queues.

    ``io_priority`` defaults to background (larger number = lower priority)
    so the job's traffic yields to foreground I/O — the paper's "not
    impede active I/O rates" property.
    """

    def __init__(self, sim: "Simulator", io_priority: float = 10.0) -> None:
        self.sim = sim
        self.io_priority = io_priority

    def start(self, job: RegionJob, workers: int = 1) -> list[Process]:
        """Spawn ``workers`` processes; an empty job is done at once."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        sim = self.sim
        if job.started_at is None:
            job.started_at = sim.now
            if sim.obs is not None:
                sim.obs.log.info(job.name, "job_started", items=job.total,
                                 workers=workers, **job.labels)
        if job.total == 0:
            self._finish(job)
            return []
        return [sim.process(self._worker(job), name=f"{job.name}.w{i}")
                for i in range(workers)]

    def add_worker(self, job: RegionJob) -> Process:
        """Scale out an in-flight job (e.g. a replacement for a dead worker)."""
        return self.sim.process(self._worker(job), name=f"{job.name}.extra")

    def _worker(self, job: RegionJob):
        obs = self.sim.obs
        step = job.step
        priority = self.io_priority
        while True:
            region = job.checkout()
            if region is None:
                break
            idx = 0
            span = (obs.tracer.span(job.span_name, items=len(region))
                    if obs is not None else NULL_SPAN)
            try:
                with span:
                    while idx < len(region):
                        yield from step(region[idx], priority)
                        idx += 1
                        job.completed += 1
            except Interrupt:
                # The worker's blade died: return the unfinished tail.
                if obs is not None:
                    obs.log.warning(job.name, "worker_interrupted",
                                    returned=len(region) - idx)
                job.give_back(region[idx:])
                return
            if obs is not None:
                obs.log.debug(job.name, "region_done",
                              completed=job.completed, total=job.total,
                              eta_s=job.eta(self.sim.now))
        if not job.pending and job.completed >= job.total:
            self._finish(job)

    def _finish(self, job: RegionJob) -> None:
        if job.done:
            return
        job.done = True
        job.finished_at = self.sim.now
        if self.sim.obs is not None:
            self.sim.obs.log.info(job.name, "job_completed", items=job.total,
                                  seconds=job.finished_at - job.started_at)
        for callback in job._on_done:
            callback()


__all__ = ["RegionEngine", "RegionJob", "Step"]
