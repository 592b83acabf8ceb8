"""Service-level objectives with multi-window burn-rate alerting.

A shared national-lab storage facility is sold on promises — "99.9 % of
client I/Os succeed", "p99 read latency under 50 ms", "a scrub pass at
least every N hours", "DR backlog never older than the RPO".  This module
makes those promises declarative objects evaluated over the labeled time
series of :mod:`repro.obs.timeseries`, with the multi-window
multi-burn-rate alerting policy from the Google SRE workbook: an alert
fires only when the error budget is burning fast over *both* a short and
a long window, which pages quickly on real incidents while ignoring
single bad samples.

Two objective shapes cover the fleet:

* :class:`RatioSLO` — good/bad counter pair (availability: ops_ok vs
  ops_failed).  Error fraction over a window is ``bad / (good + bad)``.
* :class:`ThresholdSLO` — a stat of one series must stay on the right
  side of a bound (p99 latency, scrub lag, replication backlog).  Error
  fraction is the fraction of downsampling intervals in violation, which
  for ``level`` series (carry-forward) measures *time* in violation.

Everything runs on simulated time through a normal kernel process, so a
seeded fault campaign fires the same alerts — same names, same sim-times
— on every run, and an instrumentation-off run costs nothing because the
monitor is only ever started when ``sim.obs`` is live.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .events import EventLog, Severity
from .telemetry import ComponentHealth, HealthState
from .timeseries import STATS, Series, SeriesRegistry, Window

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


@dataclass(frozen=True)
class BurnWindow:
    """One (short, long, factor) burn-rate rule.

    The alert condition is ``burn(short) >= factor and burn(long) >=
    factor`` where ``burn = error_fraction / (1 - objective)``.  The
    defaults are the SRE-workbook pairs: a *page* when 2 % of a 30-day
    budget burns in one hour (factor 14.4 over 5m/1h) and a *ticket*
    when 10 % burns in six hours (factor 6 over 30m/6h).
    """

    short_s: float
    long_s: float
    factor: float
    severity: str  # "page" | "ticket"


PAGE = BurnWindow(short_s=300.0, long_s=3600.0, factor=14.4, severity="page")
TICKET = BurnWindow(short_s=1800.0, long_s=21600.0, factor=6.0,
                    severity="ticket")
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (PAGE, TICKET)


@dataclass
class Alert:
    """One fired burn-rate alert; edge-triggered, resolvable."""

    slo: str
    severity: str
    fired_at: float
    burn_short: float
    burn_long: float
    window: BurnWindow
    resolved_at: float | None = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def as_dict(self) -> dict[str, Any]:
        return {"slo": self.slo, "severity": self.severity,
                "fired_at": self.fired_at, "resolved_at": self.resolved_at,
                "burn_short": round(self.burn_short, 6),
                "burn_long": round(self.burn_long, 6),
                "window": {"short_s": self.window.short_s,
                           "long_s": self.window.long_s,
                           "factor": self.window.factor}}


class SLO:
    """Base objective: a name, a target fraction, and burn windows.

    ``objective`` is the promised good fraction (0.999 leaves a 0.1 %
    error budget).  Subclasses implement :meth:`error_fraction`, which
    may return ``None`` when the window holds no data — no data means no
    evidence of burn, so nothing fires (and an active alert resolves).
    """

    def __init__(self, name: str, objective: float,
                 windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
                 description: str = "") -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {objective}")
        self.name = name
        self.objective = objective
        self.windows = windows
        self.description = description

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def burn(self, registry: SeriesRegistry, window_s: float,
             now: float) -> float | None:
        """Burn rate over the trailing ``window_s`` (None = no data)."""
        frac = self.error_fraction(registry, max(0.0, now - window_s), now)
        return None if frac is None else frac / self.budget

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "objective": self.objective,
                "kind": type(self).__name__,
                "description": self.description}


class RatioSLO(SLO):
    """Good/bad counter objective, e.g. client I/O availability.

    ``good`` and ``bad`` each select counter series by ``(name, labels)``;
    labels are a subset match, so ``("client.ops_ok", {})`` sums every
    tenant's series while ``("client.ops_ok", {"tenant": "hpc"})`` pins
    one.
    """

    def __init__(self, name: str, objective: float, good: str, bad: str,
                 labels: dict[str, Any] | None = None, **kwargs: Any) -> None:
        super().__init__(name, objective, **kwargs)
        self.good = good
        self.bad = bad
        self.labels = dict(labels or {})

    def error_fraction(self, registry: SeriesRegistry, t0: float,
                       t1: float) -> float | None:
        good = sum(s.range_sum(t0, t1)
                   for s in registry.match(self.good, **self.labels))
        bad = sum(s.range_sum(t0, t1)
                  for s in registry.match(self.bad, **self.labels))
        total = good + bad
        if total <= 0:
            return None
        return bad / total

    def as_dict(self) -> dict[str, Any]:
        out = super().as_dict()
        out.update({"good": self.good, "bad": self.bad,
                    "labels": self.labels})
        return out


class _SlotCounts:
    """Running (observed, violating) slot counts of one series for one
    :class:`ThresholdSLO`, extended over newly closed windows only.

    Entry ``j`` is one window: its slot ``slots[j]`` and ``rows[j] =
    (seen, bad, own, carry)`` -- the observed and violating slots before
    it, whether its own value violates, and, for a level series, whether
    the ``max`` it carries into the empty slots after it does.  The counts
    over slots below any ``x`` are then one bisect and a little arithmetic,
    and a window query is the difference of two of them.  When a flush
    split a slot, its second entry has the same counts before it and
    ``bisect_right`` finds it, so the later window decides; that is also
    why the open slot's window can be folded in before the slot ends.
    Entries whose windows left the series' ring are dropped, so memory
    stays bounded by the ring's ``capacity``.
    """

    __slots__ = ("seq", "slots", "rows")

    def __init__(self) -> None:
        self.seq = 0
        self.slots: list[int] = []
        self.rows: list[tuple[int, int, int, int]] = []

    def below(self, x: int, level: bool) -> tuple[int, int]:
        """(observed, violating) slots below slot ``x``."""
        j = bisect_right(self.slots, x) - 1
        if j < 0:
            return 0, 0
        seen, bad, own, carry = self.rows[j]
        span = x - self.slots[j]
        if span == 0:
            return seen, bad
        if not level:
            return seen + 1, bad + own
        return seen + span, bad + own + (span - 1) * carry

    def extend(self, slots: list[int], windows: list[Window], level: bool,
               stat: str, violates: Callable[[float], bool]) -> None:
        for slot, w in zip(slots, windows):
            seen, bad = self.below(slot, level)
            self.slots.append(slot)
            self.rows.append((seen, bad, 1 if violates(w.stat(stat)) else 0,
                              1 if level and violates(w.max) else 0))

    def drop_below(self, slot: int) -> None:
        k = bisect_left(self.slots, slot)
        del self.slots[:k]
        del self.rows[:k]


class ThresholdSLO(SLO):
    """Stat-under-bound objective, e.g. "p99 latency ≤ 50 ms".

    Each downsampling interval whose ``stat`` lands on the wrong side of
    ``bound`` is a bad interval; the error fraction is bad / observed
    intervals.  With a ``level`` series the carry-forward semantics turn
    that into fraction of *time* in violation — exactly what "blades
    down" or "backlog over RPO" objectives need.  When several labeled
    series match, the worst one governs (an SLO is only as good as its
    worst tenant/site).

    A slot's value is ``stat`` of its window, the later one when a flush
    split the slot.  For ``sample`` series, only slots with data count.
    For ``level`` series, an empty slot carries the ``max`` of the latest
    window before it, inside the range or before ``t0``, so a long-lived
    condition recorded once counts for its whole duration and a slot's
    value does not depend on where the range starts.  Slots before the
    oldest retained window do not count
    (``tests/test_obs_slo_incremental.py::ref_slot_stats`` is the
    reference).  Slots are counted incrementally: each query first folds
    in the windows closed since the previous one, then reads two prefix
    counts, so an evaluation costs O(log n) per series plus the newly
    closed windows.
    """

    def __init__(self, name: str, objective: float, series: str,
                 bound: float, stat: str = "p99", op: str = "gt",
                 labels: dict[str, Any] | None = None, **kwargs: Any) -> None:
        if op not in ("gt", "lt"):
            raise ValueError(f"op must be gt/lt, got {op!r}")
        if stat not in STATS:
            raise ValueError(
                f"stat must be one of {'/'.join(STATS)}, got {stat!r}")
        super().__init__(name, objective, **kwargs)
        self.series = series
        self.bound = bound
        self.stat = stat
        self.op = op
        self.labels = dict(labels or {})
        self._counts: dict[Series, _SlotCounts] = {}

    def _violates(self, value: float) -> bool:
        return value > self.bound if self.op == "gt" else value < self.bound

    def error_fraction(self, registry: SeriesRegistry, t0: float,
                       t1: float) -> float | None:
        worst: float | None = None
        for s in registry.match(self.series, **self.labels):
            counts = self._counts.get(s)
            if counts is None:
                counts = self._counts[s] = _SlotCounts()
            counts.seq, slots, windows = s.windows_since(counts.seq)
            level = s.kind == "level"
            counts.extend(slots, windows, level, self.stat, self._violates)
            base = s.first_slot
            if base is None:
                continue
            counts.drop_below(base)
            first = max(int(t0 / s.interval), base)
            last = int(t1 / s.interval)
            if first >= last:
                continue
            seen0, bad0 = counts.below(first, level)
            seen1, bad1 = counts.below(last, level)
            total = seen1 - seen0
            if total:
                frac = (bad1 - bad0) / total
                if worst is None or frac > worst:
                    worst = frac
        return worst

    def as_dict(self) -> dict[str, Any]:
        out = super().as_dict()
        out.update({"series": self.series, "bound": self.bound,
                    "stat": self.stat, "op": self.op,
                    "labels": self.labels})
        return out


class SLOMonitor:
    """Evaluates every registered SLO on a fixed simulated-time cadence.

    Alerts are edge-triggered: one :class:`Alert` per (SLO, severity)
    condition onset, resolved when the condition clears.  Firings land in
    the structured event log (CRITICAL for pages, WARNING for tickets)
    and each SLO exposes a management-plane health probe, so a burning
    objective degrades the single-system-image report.
    """

    def __init__(self, sim: "Simulator", registry: SeriesRegistry,
                 log: EventLog | None = None) -> None:
        self.sim = sim
        self.registry = registry
        self.log = log
        self._slos: dict[str, SLO] = {}
        #: The SLOs in name order, kept sorted by :meth:`add`.
        self._ordered: list[SLO] = []
        self.alerts: list[Alert] = []
        self._active: dict[tuple[str, str], Alert] = {}
        self.evaluations = 0
        self._started = False

    # -- registration ----------------------------------------------------------

    def add(self, slo: SLO) -> SLO:
        if slo.name in self._slos:
            raise ValueError(f"duplicate SLO {slo.name!r}")
        self._slos[slo.name] = slo
        insort(self._ordered, slo, key=lambda x: x.name)
        return slo

    def slos(self) -> list[SLO]:
        return list(self._ordered)

    def health_probe(self, slo_name: str) -> ComponentHealth:
        """Management-plane probe body for one SLO."""
        slo = self._slos[slo_name]
        active = [a for a in self._active.values() if a.slo == slo_name]
        metrics: dict[str, float] = {"objective": slo.objective,
                                     "active_alerts": float(len(active))}
        for w in slo.windows:
            burn = slo.burn(self.registry, w.long_s, self.sim.now)
            metrics[f"burn_{int(w.long_s)}s"] = 0.0 if burn is None else burn
        if any(a.severity == "page" for a in active):
            return ComponentHealth(f"slo.{slo_name}", HealthState.FAILED,
                                   metrics=metrics,
                                   detail="error budget burning at page rate")
        if active:
            return ComponentHealth(f"slo.{slo_name}", HealthState.DEGRADED,
                                   metrics=metrics,
                                   detail="error budget burning at ticket rate")
        return ComponentHealth(f"slo.{slo_name}", HealthState.UP,
                               metrics=metrics)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self) -> list[Alert]:
        """One evaluation pass at the current sim time; returns new alerts."""
        self.evaluations += 1
        now = self.sim.now
        fired: list[Alert] = []
        for slo in self._ordered:
            for w in slo.windows:
                burn_short = slo.burn(self.registry, w.short_s, now)
                burn_long = slo.burn(self.registry, w.long_s, now)
                firing = (burn_short is not None and burn_long is not None
                          and burn_short >= w.factor
                          and burn_long >= w.factor)
                key = (slo.name, w.severity)
                alert = self._active.get(key)
                if firing and alert is None:
                    alert = Alert(slo.name, w.severity, now,
                                  burn_short, burn_long, w)
                    self._active[key] = alert
                    self.alerts.append(alert)
                    fired.append(alert)
                    if self.log is not None:
                        sev = (Severity.CRITICAL if w.severity == "page"
                               else Severity.WARNING)
                        self.log.emit(
                            sev, f"slo.{slo.name}", "slo.burn_rate",
                            f"{w.severity}: error budget burn "
                            f"{burn_short:.2f}x/{burn_long:.2f}x "
                            f"over {w.short_s:g}s/{w.long_s:g}s",
                            burn_short=round(burn_short, 4),
                            burn_long=round(burn_long, 4),
                            factor=w.factor)
                elif not firing and alert is not None:
                    alert.resolved_at = now
                    del self._active[key]
                    if self.log is not None:
                        self.log.info(
                            f"slo.{slo.name}", "slo.resolved",
                            f"{w.severity} alert resolved after "
                            f"{now - alert.fired_at:g}s")
        return fired

    def start(self, period: float = 60.0) -> None:
        """Run the evaluation loop as a kernel process (idempotent)."""
        if self._started:
            return
        self._started = True

        def loop():
            while True:
                yield self.sim.timeout(period)
                self.evaluate()

        self.sim.process(loop(), name="slo-monitor")

    # -- queries / export ------------------------------------------------------

    def active_alerts(self) -> list[Alert]:
        return sorted(self._active.values(),
                      key=lambda a: (a.slo, a.severity))

    def alert_log(self) -> list[tuple[str, str, float]]:
        """(slo, severity, fired_at) triples — the determinism fingerprint."""
        return [(a.slo, a.severity, a.fired_at) for a in self.alerts]

    def export_snapshot(self) -> dict[str, Any]:
        """Bounded summary for ManagementPlane JSON attachment."""
        return {
            "evaluations": self.evaluations,
            "alerts_total": len(self.alerts),
            "alerts_active": len(self._active),
            "slos": [slo.as_dict() for slo in self.slos()],
            "alerts": [a.as_dict() for a in self.alerts],
        }

    def to_prometheus(self, prefix: str = "netstorage") -> str:
        lines = [f"# TYPE {prefix}_slo_burn_rate gauge"]
        now = self.sim.now
        for slo in self.slos():
            for w in slo.windows:
                burn = slo.burn(self.registry, w.long_s, now)
                lines.append(
                    f'{prefix}_slo_burn_rate{{slo="{slo.name}",'
                    f'window="{int(w.long_s)}s"}} '
                    f"{0.0 if burn is None else burn:g}")
        lines.append(f"# TYPE {prefix}_slo_alerts_active gauge")
        for slo in self.slos():
            active = sum(1 for a in self._active.values() if a.slo == slo.name)
            lines.append(
                f'{prefix}_slo_alerts_active{{slo="{slo.name}"}} {active}')
        return "\n".join(lines) + "\n"

    def format_status(self) -> str:
        """The dashboard's SLO table."""
        from ..core.report import format_table  # local: avoid import cycle
        now = self.sim.now
        rows = []
        for slo in self.slos():
            active = [a for a in self._active.values() if a.slo == slo.name]
            burns = []
            for w in slo.windows:
                burn = slo.burn(self.registry, w.long_s, now)
                burns.append(f"{int(w.long_s)}s="
                             + ("-" if burn is None else f"{burn:.2f}x"))
            rows.append([slo.name, f"{slo.objective:.5g}",
                         "  ".join(burns),
                         ",".join(sorted(a.severity for a in active)) or "-",
                         sum(1 for a in self.alerts if a.slo == slo.name)])
        title = (f"SLOs at t={now:.6f}s ({len(self._slos)} objectives, "
                 f"{len(self._active)} active alerts, "
                 f"{len(self.alerts)} fired)")
        return format_table(["slo", "objective", "burn", "active", "fired"],
                            rows, title=title)
