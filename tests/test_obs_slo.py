"""Unit tests for SLO burn-rate alerting (repro.obs.slo)."""

import pytest

from repro.obs import (BurnWindow, EventLog, PAGE, RatioSLO, SLO, SLOMonitor,
                       SeriesRegistry, Severity, TICKET, ThresholdSLO)
from repro.sim import Simulator


def make_monitor(interval=60.0):
    sim = Simulator()
    reg = SeriesRegistry(sim, interval=interval, capacity=720)
    log = EventLog(sim)
    return sim, reg, SLOMonitor(sim, reg, log=log)


class TestSLOBase:
    def test_objective_bounds(self):
        with pytest.raises(ValueError):
            SLO("x", 0.0)
        with pytest.raises(ValueError):
            SLO("x", 1.0)
        assert SLO("x", 0.999).budget == pytest.approx(0.001)

    def test_default_windows_are_sre_pairs(self):
        slo = SLO("x", 0.999)
        assert slo.windows == (PAGE, TICKET)
        assert PAGE.factor == 14.4 and PAGE.severity == "page"
        assert TICKET.long_s == 21600.0 and TICKET.severity == "ticket"


class TestRatioSLO:
    def test_error_fraction_sums_matching_series(self):
        sim, reg, _mon = make_monitor()
        reg.series("ops_ok", tenant="a").incr(90.0)
        reg.series("ops_ok", tenant="b").incr(5.0)
        reg.series("ops_failed", tenant="a").incr(5.0)
        sim.now = 60.0  # close the buckets
        slo = RatioSLO("avail", 0.999, good="ops_ok", bad="ops_failed")
        assert slo.error_fraction(reg, 0.0, 60.0) == pytest.approx(0.05)
        pinned = RatioSLO("avail-b", 0.999, good="ops_ok",
                          bad="ops_failed", labels={"tenant": "b"})
        assert pinned.error_fraction(reg, 0.0, 60.0) == 0.0

    def test_no_data_is_none_not_zero(self):
        _sim, reg, _mon = make_monitor()
        slo = RatioSLO("avail", 0.999, good="ops_ok", bad="ops_failed")
        assert slo.error_fraction(reg, 0.0, 60.0) is None
        assert slo.burn(reg, 300.0, 60.0) is None


class TestThresholdSLO:
    def test_op_validation(self):
        with pytest.raises(ValueError):
            ThresholdSLO("x", 0.99, series="s", bound=1.0, op="ge")

    def test_stat_validation_fails_at_construction(self):
        with pytest.raises(ValueError, match="stat"):
            ThresholdSLO("x", 0.99, series="s", bound=1.0, stat="p95")
        for stat in ("count", "sum", "avg", "min", "max", "p99"):
            ThresholdSLO("x", 0.99, series="s", bound=1.0, stat=stat)

    def test_violation_fraction_over_slots(self):
        sim, reg, _mon = make_monitor(interval=1.0)
        s = reg.series("lat")
        for t, v in ((0.5, 0.1), (1.5, 0.9), (2.5, 0.9), (3.5, 0.1)):
            sim.now = t
            s.record(v)
        sim.now = 10.0
        slo = ThresholdSLO("lat", 0.9, series="lat", bound=0.5, stat="p99")
        assert slo.error_fraction(reg, 0.0, 4.0) == pytest.approx(0.5)

    def test_worst_matching_series_governs(self):
        sim, reg, _mon = make_monitor(interval=1.0)
        reg.series("lat", site="a").record(0.1)
        reg.series("lat", site="b").record(0.9)
        sim.now = 2.0
        slo = ThresholdSLO("lat", 0.9, series="lat", bound=0.5)
        assert slo.error_fraction(reg, 0.0, 2.0) == 1.0

    def test_lt_op_for_floor_objectives(self):
        sim, reg, _mon = make_monitor(interval=1.0)
        reg.series("tput").record(10.0)
        sim.now = 2.0
        slo = ThresholdSLO("tput", 0.9, series="tput", bound=50.0,
                           stat="max", op="lt")
        assert slo.error_fraction(reg, 0.0, 2.0) == 1.0


class TestSLOMonitor:
    def _outage_monitor(self):
        """A level series that goes down at t=600 and stays down."""
        sim, reg, mon = make_monitor()
        down = reg.level("blades_down")
        down.record(0.0)
        sim.now = 600.0
        down.record(1.0)
        mon.add(ThresholdSLO("blades-up", 0.999, series="blades_down",
                             bound=0.0, stat="max"))
        return sim, reg, mon

    def test_duplicate_name_rejected(self):
        _sim, _reg, mon = make_monitor()
        mon.add(SLO("x", 0.999))
        with pytest.raises(ValueError):
            mon.add(SLO("x", 0.99))

    def test_fire_resolve_cycle_is_edge_triggered(self):
        sim, reg, mon = self._outage_monitor()
        sim.now = 1800.0          # 20 min into the outage
        fired = mon.evaluate()
        assert [(a.slo, a.severity) for a in fired] == [
            ("blades-up", "page"), ("blades-up", "ticket")]
        assert mon.evaluate() == []        # still firing: no re-fire
        # Repair, then let the short windows clear.
        reg.get("blades_down").record(0.0)
        sim.now = 1800.0 + 7200.0
        assert mon.evaluate() == []
        assert mon.active_alerts() == []
        assert all(a.resolved_at is not None for a in mon.alerts)

    def test_alert_log_fingerprint(self):
        sim, _reg, mon = self._outage_monitor()
        sim.now = 1800.0
        mon.evaluate()
        assert mon.alert_log() == [("blades-up", "page", 1800.0),
                                   ("blades-up", "ticket", 1800.0)]

    def test_firing_needs_both_windows(self):
        # A short blip: the 5m window burns hot but the 1h window stays
        # under the factor, so nothing pages.
        sim, reg, mon = make_monitor()
        down = reg.level("blades_down")
        down.record(0.0)
        sim.now = 35940.0
        down.record(1.0)          # down for one 60s slot out of ~10h
        sim.now = 36000.0
        down.record(0.0)
        mon.add(ThresholdSLO("blades-up", 0.9, series="blades_down",
                             bound=0.0, stat="max"))
        sim.now = 36030.0
        assert mon.evaluate() == []

    def test_alerts_land_in_event_log(self):
        sim, _reg, mon = self._outage_monitor()
        sim.now = 1800.0
        mon.evaluate()
        kinds = [(r.severity, r.kind) for r in mon.log.records()]
        assert (Severity.CRITICAL, "slo.burn_rate") in kinds
        assert (Severity.WARNING, "slo.burn_rate") in kinds

    def test_health_probe_tracks_alert_severity(self):
        sim, reg, mon = self._outage_monitor()
        assert mon.health_probe("blades-up").state.value == "up"
        sim.now = 1800.0
        mon.evaluate()
        assert mon.health_probe("blades-up").state.value == "failed"
        reg.get("blades_down").record(0.0)
        sim.now = 1800.0 + 7200.0
        mon.evaluate()
        assert mon.health_probe("blades-up").state.value == "up"

    def test_no_data_resolves_active_alerts(self):
        sim, reg, mon = self._outage_monitor()
        sim.now = 1800.0
        mon.evaluate()
        assert mon.active_alerts()
        # Far future: the retention ring no longer covers the windows, so
        # burn is None — no evidence means resolve, not latch-forever.
        sim.now = 1800.0 + 720 * 60.0 * 3
        down = reg.get("blades_down")
        down._ring.clear()
        down._slots.clear()
        mon.evaluate()
        assert mon.active_alerts() == []

    def test_quiet_counters_resolve_active_alerts(self):
        # The same "no data" path through the public API only: counters
        # that stop for longer than the long window leave it empty.
        sim, reg, mon = make_monitor()
        mon.add(RatioSLO("avail", 0.999, good="ops_ok", bad="ops_failed"))
        for minute in range(30):
            sim.now = minute * 60.0
            reg.series("ops_ok").incr(1.0)
            reg.series("ops_failed").incr(1.0)
        sim.now = 1800.0
        mon.evaluate()
        assert [(a.severity, a.active) for a in mon.alerts] == [
            ("page", True), ("ticket", True)]
        sim.now = 1800.0 + TICKET.long_s + 60.0
        mon.evaluate()
        assert mon.active_alerts() == []
        assert [a.resolved_at for a in mon.alerts] == [sim.now, sim.now]

    def test_start_is_idempotent_and_periodic(self):
        sim, _reg, mon = make_monitor()
        mon.add(SLO("noop", 0.999, windows=()))
        mon.start(period=60.0)
        mon.start(period=60.0)          # second start must not double up
        sim.run(until=310.0)
        assert mon.evaluations == 5     # t=60..300, once per period

    def test_exports(self):
        sim, _reg, mon = self._outage_monitor()
        sim.now = 1800.0
        mon.evaluate()
        snap = mon.export_snapshot()
        assert snap["alerts_total"] == 2
        assert snap["alerts_active"] == 2
        assert snap["slos"][0]["name"] == "blades-up"
        prom = mon.to_prometheus()
        assert 'netstorage_slo_alerts_active{slo="blades-up"} 2' in prom
        assert "netstorage_slo_burn_rate" in prom
        status = mon.format_status()
        assert "blades-up" in status and "page,ticket" in status

    def test_export_names_a_ratio_slos_counter_pair(self):
        _sim, _reg, mon = make_monitor()
        mon.add(RatioSLO("avail", 0.999, good="ops_ok", bad="ops_failed",
                         labels={"tenant": "hpc"}, description="client I/O"))
        assert mon.export_snapshot()["slos"] == [{
            "name": "avail", "objective": 0.999, "kind": "RatioSLO",
            "description": "client I/O", "good": "ops_ok",
            "bad": "ops_failed", "labels": {"tenant": "hpc"}}]


class TestBurnWindowCustomization:
    def test_custom_windows_only(self):
        sim, reg, mon = make_monitor()
        fast = BurnWindow(short_s=60.0, long_s=120.0, factor=2.0,
                          severity="page")
        sim.now = 150.0            # inside both trailing windows at t=180
        reg.series("good").incr(1.0)
        reg.series("bad").incr(9.0)
        sim.now = 180.0
        mon.add(RatioSLO("avail", 0.8, good="good", bad="bad",
                         windows=(fast,)))
        fired = mon.evaluate()
        assert [a.severity for a in fired] == ["page"]
        assert fired[0].window is fast
