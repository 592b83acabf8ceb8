"""Kernel self-profiler: what the event loop actually spends itself on.

Kernel performance work needs to be judged with a measurement tool, not
a hunch: *which* event types dominate the heap, *which* callbacks fire
most, and where the interpreter's wall-clock time goes.  This module is that tool — a profiler for the simulation kernel
itself, attached via :meth:`Simulator.attach_profiler`.

Three signals, each chosen to stay cheap enough to leave on:

* **Exact dispatch counts** per category — ``Timeout`` / ``AllOf`` /
  deferred ``call:<qualname>`` / direct-delivery ``process:<name>`` —
  and per callback target, counted on every event.
* **Sampled wall-clock attribution**: every ``sample_every`` events the
  profiler reads ``time.perf_counter()`` and charges the elapsed wall
  time since the previous sample to the current event's category.  This
  is statistical profiling — cheap, and converging on the truth for the
  event mixes that matter (millions of events).
* **Queue-depth series**: heap size sampled every ``depth_every``
  events into a bounded ring, answering "was the heap growing?".

Wall-clock numbers are real time and therefore *not* deterministic; the
counts and queue-depth samples are driven purely by the deterministic
event stream.  Attaching a profiler never changes simulation semantics:
the kernel's one dispatch loop calls :meth:`KernelProfiler.observe`
behind a single ``is not None`` test, and the profiler is a pure
observer.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.events import Event
    from typing import Callable


class KernelProfiler:
    """Observer the kernel consults once per dispatched event.

    ``sample_every`` trades wall-clock resolution for overhead (every
    Nth event pays one ``perf_counter`` call); ``depth_every`` does the
    same for heap-size samples.
    """

    def __init__(self, sim: "Simulator", sample_every: int = 64,
                 depth_every: int = 256, depth_capacity: int = 4096) -> None:
        if sample_every < 1 or depth_every < 1:
            raise ValueError("sample_every/depth_every must be >= 1")
        self.sim = sim
        self.sample_every = sample_every
        self.depth_every = depth_every
        self.event_counts: dict[str, int] = {}
        self.callback_counts: dict[str, int] = {}
        self.wall_s: dict[str, float] = {}
        #: (sim_time, events_seen, queue_depth) triples, newest-last.
        self.depth_samples: deque[tuple[float, int, int]] = deque(
            maxlen=depth_capacity)
        self.events_seen = 0
        self.wall_samples = 0
        self.started_wall = perf_counter()
        self._last_wall = self.started_wall

    # -- kernel-facing hot path -------------------------------------------------

    def observe(self, event: "Event | None",
                callback: "Callable | None", depth: int) -> None:
        """Called by the kernel once per event, before dispatch."""
        if event is None:
            category = "call:" + getattr(callback, "__qualname__",
                                         repr(callback))
        elif callback is not None:
            owner = getattr(callback, "__self__", None)
            name = getattr(owner, "name", None)
            category = (f"process:{name}" if name is not None
                        else "direct:" + getattr(callback, "__qualname__",
                                                 repr(callback)))
        else:
            category = type(event).__name__
            callbacks = event.callbacks
            if callbacks:
                counts = self.callback_counts
                for fn in callbacks:
                    owner = getattr(fn, "__self__", None)
                    pname = getattr(owner, "name", None)
                    target = (f"process:{pname}" if pname is not None
                              else getattr(fn, "__qualname__", "callback"))
                    counts[target] = counts.get(target, 0) + 1
        counts = self.event_counts
        counts[category] = counts.get(category, 0) + 1
        self.events_seen += 1
        if self.events_seen % self.sample_every == 0:
            now = perf_counter()
            self.wall_s[category] = (self.wall_s.get(category, 0.0)
                                     + (now - self._last_wall))
            self._last_wall = now
            self.wall_samples += 1
        if self.events_seen % self.depth_every == 0:
            self.depth_samples.append((self.sim.now, self.events_seen, depth))

    # -- reporting --------------------------------------------------------------

    def top(self, n: int = 10, by: str = "count"
            ) -> list[tuple[str, int, float]]:
        """Top categories as (category, count, attributed_wall_s).

        ``by`` is ``"count"`` (exact) or ``"wall"`` (sampled); ties break
        on category name so reports are stable run to run for the
        deterministic columns.
        """
        rows = [(cat, self.event_counts.get(cat, 0),
                 self.wall_s.get(cat, 0.0))
                for cat in set(self.event_counts) | set(self.wall_s)]
        if by == "wall":
            rows.sort(key=lambda r: (-r[2], r[0]))
        else:
            rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:n]

    def depth_stats(self) -> dict[str, float]:
        if not self.depth_samples:
            return {"samples": 0.0}
        depths = [d for _t, _n, d in self.depth_samples]
        return {"samples": float(len(depths)),
                "min": float(min(depths)), "max": float(max(depths)),
                "avg": sum(depths) / len(depths),
                "last": float(depths[-1])}

    def report(self, top_n: int = 10) -> dict[str, Any]:
        """The full ``top N`` report (JSON-able)."""
        wall_total = perf_counter() - self.started_wall
        return {
            "events_seen": self.events_seen,
            "sim_time_s": self.sim.now,
            "wall_time_s": wall_total,
            "wall_samples": self.wall_samples,
            "sample_every": self.sample_every,
            "categories": len(self.event_counts),
            "top_by_count": [
                {"category": c, "count": n, "wall_s": round(w, 6)}
                for c, n, w in self.top(top_n, by="count")],
            "top_by_wall": [
                {"category": c, "count": n, "wall_s": round(w, 6)}
                for c, n, w in self.top(top_n, by="wall")],
            "callback_targets": dict(sorted(
                self.callback_counts.items(),
                key=lambda kv: (-kv[1], kv[0]))[:top_n]),
            "queue_depth": self.depth_stats(),
        }

    def to_json(self, top_n: int = 10, indent: int | None = None) -> str:
        return json.dumps(self.report(top_n), sort_keys=True,
                          separators=(",", ":") if indent is None else None,
                          indent=indent)

    def export_snapshot(self) -> dict[str, Any]:
        """Bounded summary for ManagementPlane JSON attachment."""
        rep = self.report(top_n=5)
        rep.pop("callback_targets", None)
        return rep

    def to_prometheus(self, prefix: str = "netstorage") -> str:
        lines = [f"# TYPE {prefix}_kernel_dispatches gauge"]
        for cat in sorted(self.event_counts):
            lines.append(
                f'{prefix}_kernel_dispatches{{category="{cat}"}} '
                f"{self.event_counts[cat]}")
        lines.append(f"# TYPE {prefix}_kernel_queue_depth gauge")
        stats = self.depth_stats()
        for key in sorted(stats):
            lines.append(
                f'{prefix}_kernel_queue_depth{{stat="{key}"}} '
                f"{stats[key]:g}")
        return "\n".join(lines) + "\n"

    def format_report(self, top_n: int = 10) -> str:
        """The dashboard's profiler table: top categories by count."""
        from ..core.report import format_table  # local: avoid import cycle
        rows = [[cat, n, f"{w * 1e3:.3f}"]
                for cat, n, w in self.top(top_n, by="count")]
        stats = self.depth_stats()
        depth = (f"queue depth avg={stats.get('avg', 0.0):.1f} "
                 f"max={stats.get('max', 0.0):.0f}"
                 if stats["samples"] else "queue depth: no samples")
        title = (f"kernel profile: {self.events_seen} events, "
                 f"{len(self.event_counts)} categories, {depth}")
        return format_table(["category", "count", "wall_ms (sampled)"],
                            rows, title=title)
