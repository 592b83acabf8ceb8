"""Observability: tracing, events, time series, SLOs, telemetry, profiling.

Coordinated views of a running simulation (see docs/observability.md):

* :class:`~repro.obs.tracer.Tracer` — *where time went*: nested spans over
  simulated time, exportable as Chrome ``trace_event`` JSON;
* :class:`~repro.obs.events.EventLog` — *what happened*: a bounded ring of
  typed records with severities, exportable as JSONL;
* :class:`~repro.obs.timeseries.SeriesRegistry` — *how it behaved over
  time, broken down by where*: labeled ring-buffer series (site / blade /
  tenant / protocol) downsampled on simulated time;
* :class:`~repro.obs.slo.SLOMonitor` — *is it keeping its promises*:
  declarative objectives over those series with multi-window burn-rate
  alerting;
* :class:`~repro.obs.telemetry.ManagementPlane` — *how healthy it is now*:
  Figure 2's out-of-band management network aggregating per-component
  health into one single-system-image report (text/JSON/Prometheus);
* :class:`~repro.obs.profiler.KernelProfiler` — *what the kernel itself
  costs*: per-event-type dispatch counts and sampled wall attribution
  (attached separately via ``sim.attach_profiler()``, since profiling the
  kernel is useful with the model-level layers off).

Instrumented subsystems look for an :class:`Observability` bundle on
``sim.obs``.  With ``None`` (the default) they send span calls to the
shared no-op :data:`~repro.obs.tracer.NULL_SPAN` and skip log and series
emission; the end-to-end cost of that is measured by ``benchmarks/perf``.
Attach the bundle before building anything that emits (``enable`` refuses
a second one): each component binds its series handles in ``__init__``
and only records into them per operation.

>>> from repro.obs import enable
>>> obs = enable(sim)                 # sim.obs is now live
>>> system = NetStorageSystem(sim, SystemConfig(observability=True))
>>> ... run workload ...
>>> open("trace.json", "w").write(obs.tracer.to_json())
>>> print(obs.format_dashboard())
>>> self._bytes = bind(sim, "link.bytes", link=name)  # an emitter's __init__
>>> if self._bytes is not None: self._bytes.record(n)  # per operation
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import EventLog, EventRecord, Severity
from .profiler import KernelProfiler
from .slo import (DEFAULT_WINDOWS, PAGE, TICKET, Alert, BurnWindow, RatioSLO,
                  SLO, SLOMonitor, ThresholdSLO)
from .telemetry import ComponentHealth, HealthProbe, HealthState, ManagementPlane
from .timeseries import Series, SeriesRegistry, Window, bind, bind_by_site
from .tracer import NULL_SPAN, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

__all__ = [
    "DEFAULT_WINDOWS",
    "NULL_SPAN",
    "PAGE",
    "TICKET",
    "Alert",
    "BurnWindow",
    "ComponentHealth",
    "EventLog",
    "EventRecord",
    "HealthProbe",
    "HealthState",
    "KernelProfiler",
    "ManagementPlane",
    "Observability",
    "RatioSLO",
    "SLO",
    "SLOMonitor",
    "Series",
    "SeriesRegistry",
    "Severity",
    "Span",
    "ThresholdSLO",
    "Tracer",
    "Window",
    "bind",
    "bind_by_site",
    "enable",
]


class Observability:
    """The bundle subsystems consult via ``sim.obs``.

    ``tracing=False`` keeps the event log and telemetry but makes every
    ``tracer.span()`` return the shared no-op span; ``events=False`` mutes
    the log.  The management plane always works — health polling is pull
    based and costs nothing until something polls.  ``series_interval`` /
    ``series_capacity`` size the time-series layer: retention is their
    product, and SLO burn windows longer than the retention see only what
    is retained (the default 1 s × 720 suits short runs; fault campaigns
    evaluating 6 h burn windows pass e.g. ``series_interval=60.0``).
    """

    def __init__(self, sim: "Simulator", tracing: bool = True,
                 events: bool = True, event_capacity: int = 4096,
                 min_severity: Severity = Severity.DEBUG,
                 max_spans: int = 200_000, series_interval: float = 1.0,
                 series_capacity: int = 720) -> None:
        self.sim = sim
        self.tracer = Tracer(sim, enabled=tracing, max_spans=max_spans)
        self.log = EventLog(sim, capacity=event_capacity,
                            min_severity=min_severity, enabled=events)
        self.series = SeriesRegistry(sim, interval=series_interval,
                                     capacity=series_capacity)
        self.slo = SLOMonitor(sim, self.series, log=self.log)
        self.mgmt = ManagementPlane(sim)
        self.mgmt.register("sim.kernel", self._kernel_health)
        self.mgmt.register("obs.eventlog", self._eventlog_health)
        self.mgmt.attach("timeseries", self.series)
        self.mgmt.attach("slo", self.slo)

    def _kernel_health(self) -> ComponentHealth:
        sim = self.sim
        return ComponentHealth("sim.kernel", HealthState.UP, metrics={
            "events_processed": float(sim.events_processed),
            "queue_depth": float(len(sim._queue)),
            "sim_time_s": sim.now,
        })

    def _eventlog_health(self) -> ComponentHealth:
        log = self.log
        detail = (f"{log.dropped} records dropped from a "
                  f"{log.capacity}-record ring" if log.dropped else "")
        return ComponentHealth("obs.eventlog", HealthState.UP, metrics={
            "emitted": float(log.emitted),
            "retained": float(len(log)),
            "suppressed": float(log.suppressed),
            "dropped": float(log.dropped),
        }, detail=detail)

    # -- SLO convenience -------------------------------------------------------

    def add_slo(self, slo: SLO) -> SLO:
        """Register an objective and its management-plane health probe."""
        self.slo.add(slo)
        self.mgmt.register(f"slo.{slo.name}",
                           lambda name=slo.name: self.slo.health_probe(name))
        return slo

    # -- reporting -------------------------------------------------------------

    def format_dashboard(self, max_series: int = 40,
                         profiler_top: int = 10) -> str:
        """One text dashboard: health, series, SLOs, and kernel profile.

        The bench-facing "single pane of glass": the management plane's
        single-system-image table, the labeled series table, SLO burn
        status (when objectives are registered), and the kernel
        profiler's top-N (when one is attached).
        """
        parts = [self.mgmt.status_report(),
                 self.series.format_table(max_rows=max_series)]
        if self.slo.slos():
            parts.append(self.slo.format_status())
        profiler = self.sim.profiler
        if profiler is not None:
            parts.append(profiler.format_report(top_n=profiler_top))
        return "\n\n".join(parts)


def enable(sim: "Simulator", **kwargs) -> Observability:
    """Attach a fresh :class:`Observability` bundle to ``sim``, before the
    components that emit into it; a second one would miss their handles."""
    if sim.obs is not None:
        raise RuntimeError("sim.obs is already attached")
    obs = Observability(sim, **kwargs)
    sim.obs = obs
    return obs
