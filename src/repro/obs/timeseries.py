"""Labeled time-series metrics over simulated time.

Counters and point snapshots answer "how much, total" and "how healthy,
now": counts are plain attributes on the component that owns them, read
by its health probe (the management plane) and the reports, and
:class:`~repro.sim.stats.MetricSet` is the pooled cache's named report.
This module
answers the question continuous operation needs: *how has it behaved over
time, broken down by where* — per site, blade, tenant, protocol.  It is
the substrate the SLO burn-rate machinery (:mod:`repro.obs.slo`) reads
and the labeled series a 2026 operator would expect to scrape.

Design rules, in the spirit of the rest of ``repro.obs``:

* **Simulated time only.**  Buckets are aligned to ``sim.now``, so the
  same seed produces the same series byte for byte; nothing here reads a
  wall clock.
* **Bounded memory.**  Each series downsamples observations into
  fixed-``interval`` windows (count / sum / min / max / p99) kept in a
  ring of ``capacity`` windows; raw samples live only inside the open
  bucket and die at the roll.
* **Zero cost when disabled.**  Emitters :func:`bind` their handles when
  built (``None`` while ``sim.obs`` is unset); the registry never
  schedules events, and lists a handle once it records.

Two series kinds cover every emitter in the tree:

* ``sample`` (default) — independent observations (latencies, bytes per
  op).  A window with no observations simply does not exist.
* ``level`` — a piecewise-constant quantity (backlog bytes, blades down,
  queue depth).  Range queries carry the ``max`` of the latest window
  forward through empty slots, which is what threshold SLOs need to see a
  6 h outage that was *recorded* only at its two edges.

Each series keeps a slot index beside its ring (the slot number of every
window, bounded by ``capacity`` like the ring), so a range query bisects
to its windows instead of copying and filtering the ring.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from .telemetry import _sanitize

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: Label keys get sorted into the series identity, so ``series("x", a=1,
#: b=2)`` and ``series("x", b=2, a=1)`` are the same series.
LabelItems = tuple[tuple[str, Any], ...]

#: The aggregates :meth:`Window.stat` answers.
STATS = ("count", "sum", "avg", "min", "max", "p99")

_start = attrgetter("start")
_total = attrgetter("total")


class Window:
    """One closed downsampling bucket: aggregates, no raw samples."""

    __slots__ = ("start", "count", "total", "min", "max", "p99")

    def __init__(self, start: float, count: int, total: float,
                 vmin: float, vmax: float, p99: float) -> None:
        self.start = start
        self.count = count
        self.total = total
        self.min = vmin
        self.max = vmax
        self.p99 = p99

    @property
    def avg(self) -> float:
        return self.total / self.count if self.count else 0.0

    def stat(self, name: str) -> float:
        """One aggregate by name: sum/avg/min/max/p99/count."""
        if name == "sum":
            return self.total
        if name == "avg":
            return self.avg
        return float(getattr(self, name))

    def as_dict(self) -> dict[str, float]:
        return {"start": self.start, "count": float(self.count),
                "sum": self.total, "avg": self.avg, "min": self.min,
                "max": self.max, "p99": self.p99}


def _p99(sorted_samples: list[float]) -> float:
    """Nearest-rank p99 of an already-sorted sample list (deterministic,
    no interpolation: the 99th-percentile rank's actual observation)."""
    n = len(sorted_samples)
    rank = max(1, -(-99 * n // 100))  # ceil(0.99 * n), integer-exact
    return sorted_samples[rank - 1]


class Series:
    """One metric stream for one label combination.

    Observations accumulate into the *open* bucket; the first record past
    the bucket's end closes it into a :class:`Window` on the ring.  All
    bucket math uses integer bucket indexes (``floor(now / interval)``)
    so alignment is exact and runs are reproducible.

    ``_slots[i]`` is the slot number of ``_ring[i]``: the bucket index
    it was recorded under, never re-derived from the float ``start``
    (for intervals such as 0.1 that can truncate into the slot before).
    Both lists are ordered oldest first and hold at most ``capacity``
    entries.  A flush mid-slot followed by more records in that slot
    leaves two windows with one slot number.
    """

    __slots__ = ("name", "labels", "kind", "interval", "sim", "capacity",
                 "_ring", "_slots", "_open_idx", "_open_samples",
                 "windows_dropped", "_last_value", "total_count",
                 "total_sum")

    def __init__(self, sim: "Simulator", name: str, labels: LabelItems,
                 interval: float, capacity: int,
                 kind: str = "sample") -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if kind not in ("sample", "level"):
            raise ValueError(f"kind must be sample/level, got {kind!r}")
        self.sim = sim
        self.name = name
        self.labels = labels
        self.kind = kind
        self.interval = float(interval)
        self.capacity = capacity
        self._ring: list[Window] = []
        self._slots: list[int] = []
        self._open_idx: int | None = None
        self._open_samples: list[float] = []
        self.windows_dropped = 0
        #: Last recorded value ever (levels carry it forward; samples
        #: report it as ``last`` in snapshots).
        self._last_value = 0.0
        self.total_count = 0
        self.total_sum = 0.0

    # -- recording -------------------------------------------------------------

    def record(self, value: float) -> None:
        """Add one observation at the current simulated time."""
        value = float(value)
        idx = int(self.sim.now / self.interval)
        if self._open_idx is None:
            self._open_idx = idx
        elif idx != self._open_idx:
            self._close_open()
            self._open_idx = idx
        self._open_samples.append(value)
        self._last_value = value
        self.total_count += 1
        self.total_sum += value

    def incr(self, by: float = 1.0) -> None:
        """Counter-style emission: each window's ``sum`` is the rate."""
        self.record(by)

    def _close_open(self) -> None:
        samples = self._open_samples
        if not samples:
            return
        if len(self._ring) == self.capacity:
            self.windows_dropped += 1
            del self._ring[0]
            del self._slots[0]
        samples.sort()
        start = self._open_idx * self.interval
        self._ring.append(Window(start, len(samples), sum(samples),
                                 samples[0], samples[-1], _p99(samples)))
        self._slots.append(self._open_idx)
        self._open_samples = []

    def flush(self) -> None:
        """Close the open bucket now (export/evaluation boundary)."""
        if self._open_samples:
            self._close_open()
            self._open_idx = None

    # -- queries ---------------------------------------------------------------

    def windows(self) -> list[Window]:
        """Closed windows, oldest first (flushes the open bucket)."""
        self.flush()
        return list(self._ring)

    @property
    def last(self) -> float:
        """The most recently recorded value (0.0 before any record)."""
        return self._last_value

    def window_at(self, when: float) -> Window | None:
        """The closed window covering simulated time ``when``, if any
        (the earlier one when a flush split the slot)."""
        self.flush()
        idx = int(when / self.interval)
        i = bisect_left(self._slots, idx)
        if i < len(self._slots) and self._slots[i] == idx:
            return self._ring[i]
        return None

    def range_windows(self, t0: float, t1: float) -> list[Window]:
        """Closed windows whose start lies in ``[t0, t1)``, oldest first."""
        self.flush()
        # t0 and t1 need not fall on slot boundaries, so bisect the ring
        # by window start rather than the slot index.
        ring = self._ring
        return ring[bisect_left(ring, t0, key=_start):
                    bisect_left(ring, t1, key=_start)]

    def range_sum(self, t0: float, t1: float) -> float:
        """Total of all observations in ``[t0, t1)``."""
        return sum(map(_total, self.range_windows(t0, t1)))

    def windows_since(self, seq: int) -> tuple[int, list[int], list[Window]]:
        """Windows closed at or after position ``seq``, with their slots:
        ``(next_seq, slots, windows)``, oldest first.

        Positions count every window this series ever closed, so a reader
        resumes where it stopped even after the ring dropped windows it
        never saw (those are skipped).  Flushes the open bucket first.
        """
        self.flush()
        lo = max(0, seq - self.windows_dropped)
        return (self.windows_dropped + max(lo, len(self._ring)),
                self._slots[lo:], self._ring[lo:])

    @property
    def first_slot(self) -> int | None:
        """Slot number of the oldest retained window (None when empty)."""
        return self._slots[0] if self._slots else None

    # -- export ----------------------------------------------------------------

    def label_str(self) -> str:
        """``{k="v",...}`` fragment (empty string when unlabeled)."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"

    def summary(self) -> dict[str, float]:
        """Whole-retention aggregates for snapshots and dashboards."""
        ws = self.windows()
        out = {"count": float(self.total_count), "sum": self.total_sum,
               "last": self._last_value, "windows": float(len(ws))}
        if ws:
            out["max"] = max(w.max for w in ws)
            out["p99"] = max(w.p99 for w in ws)
            out["avg"] = (sum(w.total for w in ws)
                          / max(1, sum(w.count for w in ws)))
        return out

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "kind": self.kind, "interval_s": self.interval,
                "windows_dropped": self.windows_dropped,
                "summary": self.summary(),
                "windows": [w.as_dict() for w in self.windows()]}


class SeriesRegistry:
    """All labeled series of one simulation, listed once they record.

    >>> reg = SeriesRegistry(sim, interval=1.0)
    >>> reg.series("cache.read_latency_s", blade=3).record(0.004)
    >>> reg.level("geo.backlog_bytes", site="dr").record(1e6)
    """

    def __init__(self, sim: "Simulator", interval: float = 1.0,
                 capacity: int = 720) -> None:
        self.sim = sim
        self.interval = float(interval)
        self.capacity = capacity
        self._series: dict[tuple[str, LabelItems], Series] = {}
        #: ``match`` results by (name, labels); cleared on series creation.
        self._matches: dict[tuple[str, LabelItems], list[Series]] = {}

    # -- access ----------------------------------------------------------------

    def series(self, name: str, **labels: Any) -> Series:
        """The sample series for ``name`` + labels, created on first use."""
        return self._get(name, "sample", labels)

    def level(self, name: str, **labels: Any) -> Series:
        """The level series (carry-forward semantics) for ``name``."""
        return self._get(name, "level", labels)

    def _get(self, name: str, kind: str, labels: dict[str, Any]) -> Series:
        key = (name, tuple(sorted(labels.items())))
        s = self._series.get(key)
        if s is None:
            s = Series(self.sim, name, key[1], self.interval,
                       self.capacity, kind=kind)
            self._series[key] = s
            self._matches.clear()
        return s

    def get(self, name: str, **labels: Any) -> Series | None:
        """Lookup without creating."""
        return self._series.get((name, tuple(sorted(labels.items()))))

    def match(self, name: str, **labels: Any) -> list[Series]:
        """Every listed series named ``name`` whose labels include
        ``labels``, sorted by labels."""
        key = (name, tuple(sorted(labels.items())))
        hit = self._matches.get(key)
        if hit is None:
            want = set(labels.items())
            hit = [s for (n, _l), s in sorted(self._series.items())
                   if n == name and want.issubset(set(s.labels))]
            self._matches[key] = hit
        return [s for s in hit if s.total_count]

    def all_series(self) -> list[Series]:
        """Every listed series, sorted by (name, labels) for stable
        output."""
        return [s for _k, s in sorted(self._series.items()) if s.total_count]

    def __len__(self) -> int:
        return sum(1 for s in self._series.values() if s.total_count)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels}.agg -> value`` map across every series."""
        out: dict[str, float] = {}
        for s in self.all_series():
            prefix = f"{s.name}{s.label_str()}"
            for agg, value in sorted(s.summary().items()):
                out[f"{prefix}.{agg}"] = value
        return out

    def export_snapshot(self) -> dict[str, float]:
        """ManagementPlane attachment protocol: the flat summary map."""
        return self.snapshot()

    def as_dict(self) -> dict[str, Any]:
        return {"interval_s": self.interval, "capacity": self.capacity,
                "series": [s.as_dict() for s in self.all_series()]}

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic JSON of every series and its windows."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":") if indent is None else None,
                          indent=indent)

    def to_prometheus(self, prefix: str = "netstorage") -> str:
        """Prometheus text exposition: one family per metric name, the
        whole-retention sum/count plus the latest value as gauges."""
        lines: list[str] = []
        by_name: dict[str, list[Series]] = {}
        for s in self.all_series():
            by_name.setdefault(s.name, []).append(s)
        for name in sorted(by_name):
            fam = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {fam} gauge")
            for s in by_name[name]:
                labels = s.label_str()
                summ = s.summary()
                lines.append(f"{fam}_total{labels} {summ['sum']:g}")
                lines.append(f"{fam}_count{labels} {summ['count']:g}")
                lines.append(f"{fam}_last{labels} {summ['last']:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def format_table(self, max_rows: int = 40) -> str:
        """The dashboard's series table: one row per labeled series."""
        from ..core.report import format_table  # local: avoid import cycle
        rows = []
        listed = self.all_series()
        for s in listed[:max_rows]:
            summ = s.summary()
            rows.append([f"{s.name}{s.label_str()}", s.kind,
                         int(summ["count"]), round(summ["sum"], 6),
                         round(summ.get("avg", 0.0), 6),
                         round(summ.get("max", 0.0), 6),
                         round(summ.get("p99", 0.0), 6)])
        clipped = max(0, len(listed) - max_rows)
        title = (f"time series at t={self.sim.now:.6f}s "
                 f"({len(listed)} series, interval {self.interval:g}s"
                 + (f", {clipped} not shown" if clipped else "") + ")")
        return format_table(["series", "kind", "count", "sum", "avg",
                             "max", "p99"], rows, title=title)


def bind(sim: "Simulator", name: str, *, level: bool = False,
         **labels: Any) -> Series | None:
    """The handle an emitter keeps for one series, bound in its
    constructor: ``None`` while ``sim.obs`` is unset."""
    if sim.obs is None:
        return None
    reg = sim.obs.series
    return reg.level(name, **labels) if level else reg.series(name, **labels)


class _BySite(dict):
    def __init__(self, sim: "Simulator", name: str, level: bool) -> None:
        super().__init__()
        self._bind = lambda site: bind(sim, name, level=level, site=site)

    def __missing__(self, site: str) -> Series:
        handle = self[site] = self._bind(site)
        return handle


def bind_by_site(sim: "Simulator", name: str, *,
                 level: bool = False) -> "dict[str, Series] | None":
    """:func:`bind` per site, keyed by site name and bound on the site's
    first use (sites may join a network after the emitter is built)."""
    return None if sim.obs is None else _BySite(sim, name, level)
