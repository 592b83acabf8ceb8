"""Deterministic span tracer: where a request spends its simulated time.

Spans record begin/end at *simulated* time, nest parent/child, and follow a
request across blade → cache/coherence → RAID → disk and across geo/WAN
hops.  The whole trace is exportable as Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto load it directly).

Determinism matters here: span ids come from a plain counter and export is
fully sorted, so two runs with the same RNG seed produce byte-identical
trace JSON — traces can be diffed across commits like any other artifact.

Because simulated processes interleave freely at the same instant, there is
no ambient "current span" stack; parentage is explicit (``span.child(...)``
or ``tracer.span(..., parent=...)``).  Each root span opens its own track
(``tid``) and descendants inherit it, which is exactly what the Chrome
viewer needs to draw nested flame charts for concurrent requests.

When tracing is disabled, :data:`NULL_SPAN` absorbs every call: no span is
allocated or recorded.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class _NullSpan:
    """Inert span: every operation is a no-op returning itself."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def child(self, name: str, **attrs: Any) -> "_NullSpan":
        return self

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> "_NullSpan":
        return self


#: Shared no-op span used whenever tracing is off.
NULL_SPAN = _NullSpan()


class Span:
    """One timed operation; a context manager over simulated time.

    >>> with tracer.span("cache.read", blade=3) as sp:
    ...     with sp.child("raid.read") as inner:
    ...         ...
    """

    __slots__ = ("_tracer", "name", "attrs", "parent", "sid", "tid",
                 "begin", "end")
    enabled = True

    def __init__(self, tracer: "Tracer", name: str,
                 parent: "Span | None", attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.sid = tracer._next_id()
        # Descendants share the root's track so the viewer nests them.
        self.tid = parent.tid if parent is not None else self.sid
        self.begin: float = tracer.sim.now
        self.end: float | None = None

    def __enter__(self) -> "Span":
        self.begin = self._tracer.sim.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(error=exc is not None)
        return False

    def close(self, error: bool = False) -> None:
        """Finish the span at the current simulated time (idempotent)."""
        if self.end is None:
            if error:
                self.attrs["error"] = True
            self.end = self._tracer.sim.now
            self._tracer._record(self)

    def child(self, name: str, **attrs: Any) -> "Span | _NullSpan":
        """Open a nested span on this span's track."""
        return self._tracer.span(name, parent=self, **attrs)

    def annotate(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes (e.g. the tier a read resolved at)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> "Span":
        """Mark an instant within this span (a Chrome 'i' event)."""
        self._tracer._instant(name, self.tid, attrs)
        return self

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        return (self.end - self.begin) if self.end is not None else 0.0


class Tracer:
    """Records finished spans and exports Chrome ``trace_event`` JSON."""

    def __init__(self, sim: "Simulator", enabled: bool = True,
                 max_spans: int = 200_000) -> None:
        self.sim = sim
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.instants: list[tuple[float, str, int, dict[str, Any]]] = []
        self.dropped = 0
        self._ids = 0

    # -- recording -----------------------------------------------------------

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def span(self, name: str, parent: "Span | None" = None,
             **attrs: Any) -> "Span | _NullSpan":
        """A new span, begun now; use as a context manager.

        ``parent`` may be ``NULL_SPAN`` (treated as no parent) so callers
        can thread span handles without caring whether tracing is on.
        """
        if not self.enabled:
            return NULL_SPAN
        if not isinstance(parent, Span):
            parent = None
        return Span(self, name, parent, attrs)

    def _record(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def _instant(self, name: str, tid: int, attrs: dict[str, Any]) -> None:
        if len(self.instants) >= self.max_spans:
            self.dropped += 1
            return
        self.instants.append((self.sim.now, name, tid, attrs))

    # -- analysis ------------------------------------------------------------

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-span-name latency stats: count / total / mean / max seconds.

        This is the attribution table benches print: which stage of the
        request path the simulated time went to.
        """
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            agg = out.setdefault(sp.name, {"count": 0.0, "total_s": 0.0,
                                           "mean_s": 0.0, "max_s": 0.0})
            dur = sp.duration
            agg["count"] += 1
            agg["total_s"] += dur
            if dur > agg["max_s"]:
                agg["max_s"] = dur
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0
        return out

    def nesting_violations(self) -> list[str]:
        """Sanity check: every span ends after it begins, and children lie
        within their parent's interval.  Returns human-readable violations
        (empty when the trace is well formed)."""
        problems: list[str] = []
        for sp in self.spans:
            if sp.end is None:
                continue
            if sp.end < sp.begin:
                problems.append(f"{sp.name}#{sp.sid}: end {sp.end} < begin {sp.begin}")
            par = sp.parent
            if par is not None and par.end is not None:
                if sp.begin < par.begin or sp.end > par.end:
                    problems.append(
                        f"{sp.name}#{sp.sid} [{sp.begin},{sp.end}] escapes "
                        f"parent {par.name}#{par.sid} [{par.begin},{par.end}]")
        return problems

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """The ``traceEvents`` list: complete ('X') spans + instants ('i')."""
        events: list[dict[str, Any]] = []
        for sp in sorted(self.spans, key=lambda s: (s.begin, s.sid)):
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(sp.begin * 1e6, 3),      # microseconds
                "dur": round(sp.duration * 1e6, 3),
                "pid": 0,
                "tid": sp.tid,
                "args": {k: _json_safe(v)
                         for k, v in sorted(sp.attrs.items())},
            })
        for ts, name, tid, attrs in sorted(self.instants,
                                           key=lambda e: (e[0], e[2], e[1])):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": round(ts * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": {k: _json_safe(v) for k, v in sorted(attrs.items())},
            })
        return events

    def chrome_trace(self) -> dict[str, Any]:
        """The full Chrome trace object (``{"traceEvents": [...]}``)."""
        return {"displayTimeUnit": "ms", "traceEvents": self.chrome_events()}

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic JSON: sorted keys, fixed separators."""
        if indent is None:
            return json.dumps(self.chrome_trace(), sort_keys=True,
                              separators=(",", ":"))
        return json.dumps(self.chrome_trace(), sort_keys=True, indent=indent)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
