"""IntegrityManager ledger semantics and RepairChain escalation."""

import pytest

from repro.faults.retry import RetryPolicy
from repro.integrity import IntegrityManager, RepairChain, RepairRequest
from repro.integrity.repair import RepairFailed
from repro.obs.telemetry import HealthState
from repro.sim import Simulator
from repro.sim.faults import TransientIOError


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def mgr(sim):
    return IntegrityManager(sim)


# -- stamping -------------------------------------------------------------


def test_stamp_and_overlap(mgr):
    mgr.stamp("disk0", 4096, 512)
    assert mgr.stamped_overlap("disk0", 4096, 512)
    assert mgr.stamped_overlap("disk0", 4400, 8)   # inside
    assert not mgr.stamped_overlap("disk0", 4608, 512)  # adjacent, after
    assert not mgr.stamped_overlap("disk1", 4096, 512)  # other domain


def test_stamped_addresses_sorted(mgr):
    for addr in (8192, 0, 4096):
        mgr.stamp("disk0", addr, 512)
    assert mgr.stamped_addresses("disk0") == [0, 4096, 8192]
    assert mgr.stamped_addresses("disk9") == []


def test_rewrite_heals_overlapping_corruption(mgr):
    mgr.stamp("disk0", 0, 1024)
    assert mgr.corrupt("disk0", 256, 512, "bitrot")
    assert mgr.verify("disk0", 0, 1024) == (256, 512, "bitrot")
    mgr.stamp("disk0", 0, 1024)  # the write overwrote the bad bytes
    assert mgr.verify("disk0", 0, 1024) is None
    assert mgr.outstanding() == 0


# -- corruption and verification ------------------------------------------


def test_corrupt_exact_duplicate_rejected(mgr):
    assert mgr.corrupt("disk0", 512, 512, "bitrot")
    assert not mgr.corrupt("disk0", 512, 512, "torn_write")
    assert mgr.injected_total == 1


def test_verify_reports_lowest_overlapping_record(mgr):
    mgr.corrupt("disk0", 2048, 512, "torn_write")
    mgr.corrupt("disk0", 1024, 512, "bitrot")
    assert mgr.verify("disk0", 0, 4096) == (1024, 512, "bitrot")
    assert mgr.verify("disk0", 2048, 8) == (2048, 512, "torn_write")
    assert mgr.verify("disk0", 3000, 512) is None


def test_cache_addresses_are_exact_probes(mgr):
    mgr.corrupt("cache", (2, ("f", 0)), 0, "bitrot")
    assert mgr.is_corrupt("cache", (2, ("f", 0)))
    assert not mgr.is_corrupt("cache", (3, ("f", 0)))
    mgr.clear("cache", (2, ("f", 0)))
    assert not mgr.is_corrupt("cache", (2, ("f", 0)))


# -- incident lifecycle ----------------------------------------------------


def test_detection_deduplicated_per_address(mgr):
    mgr.corrupt("disk0", 0, 512, "bitrot")
    assert mgr.note_detected("disk0", 0)
    assert not mgr.note_detected("disk0", 0)  # re-read of known-bad range
    assert mgr.detected_total == 1


def test_resolution_gated_on_open_incident(mgr):
    mgr.note_repaired("disk0", 0)       # never detected: no-op
    assert mgr.repaired_total == 0
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    mgr.note_repaired("disk0", 0)
    assert mgr.repaired_total == 1
    mgr.note_unrepairable("disk0", 0)   # already resolved: no-op
    assert mgr.unrepairable_total == 0


def test_fresh_incident_after_repair_counts_anew(mgr):
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    mgr.clear("disk0", 0)
    mgr.note_repaired("disk0", 0)
    assert mgr.corrupt("disk0", 0, 512, "bitrot")  # struck twice
    assert mgr.note_detected("disk0", 0)
    assert mgr.injected_total == 2 and mgr.detected_total == 2


def test_wire_event_accounting(mgr):
    mgr.wire_event("wire_corrupt", detected=True, repaired=True)
    mgr.wire_event("wire_corrupt", detected=True, repaired=False)
    mgr.wire_event("wire_corrupt", detected=False)
    s = mgr.summary()
    assert s["injected"] == 3 and s["detected"] == 2
    assert s["repaired"] == 1 and s["unrepairable"] == 1
    assert s["silent"] == 1


def test_health_states(mgr):
    assert mgr.health().state is HealthState.UP
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    assert mgr.health().state is HealthState.DEGRADED
    mgr.note_unrepairable("disk0", 0)
    assert mgr.health().state is HealthState.FAILED


# -- the escalation chain --------------------------------------------------


def _req():
    return RepairRequest(domain="disk0", address=0, length=512,
                         kind="bitrot")


def _tier_ok(sim):
    def fn(req):
        def attempt():
            return sim.timeout(0.01, value=True)
        return attempt
    return fn


def _tier_faulting(sim, calls):
    def fn(req):
        def attempt():
            calls.append(sim.now)
            ev = sim.event()
            ev.fail(TransientIOError("tier backend down"))
            return ev
        return attempt
    return fn


def test_chain_skips_unavailable_tier_without_retries(sim, mgr):
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    chain = RepairChain(sim, mgr)
    chain.add_tier("replica", lambda req: None)  # structurally absent
    chain.add_tier("parity", _tier_ok(sim))
    ev = chain.repair(_req())
    sim.run()
    assert ev.value == "parity"
    assert chain.counts["replica", "skipped"] == 1
    assert chain.counts["replica", "attempts"] == 0
    assert chain.repaired_by("parity") == 1
    assert mgr.repaired_total == 1 and mgr.outstanding() == 0


def test_chain_retries_then_escalates(sim, mgr):
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    calls = []
    chain = RepairChain(sim, mgr,
                        policy=RetryPolicy(attempts=2, base_delay=0.005))
    chain.add_tier("replica", _tier_faulting(sim, calls))
    chain.add_tier("parity", _tier_ok(sim))
    ev = chain.repair(_req())
    sim.run()
    assert ev.value == "parity"
    assert len(calls) == 2  # both retry attempts burned before escalating
    assert chain.counts["replica", "failed"] == 1


def test_chain_exhaustion_is_unrepairable(sim, mgr):
    mgr.corrupt("disk0", 0, 512, "bitrot")
    mgr.note_detected("disk0", 0)
    chain = RepairChain(sim, mgr)
    chain.add_tier("replica", lambda req: None)
    chain.add_tier("parity", _tier_faulting(sim, []))
    failures = []

    def proc():
        try:
            yield chain.repair(_req())
        except RepairFailed as exc:
            failures.append(exc)

    sim.process(proc())
    sim.run()
    assert len(failures) == 1
    # The last tier's fault rides along on the cause chain (through the
    # RetryExhausted wrapper).
    causes = []
    exc = failures[0].__cause__
    while exc is not None:
        causes.append(exc)
        exc = exc.__cause__
    assert any(isinstance(c, TransientIOError) for c in causes)
    assert mgr.unrepairable_total == 1
    assert mgr.outstanding() == 1  # the corruption still stands
    assert chain.health().state is HealthState.FAILED
