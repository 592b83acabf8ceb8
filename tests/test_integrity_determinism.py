"""The zero-cost contract: integrity accounting must be trace-invisible.

``SystemConfig(integrity=True)`` with no corruption injected (and no
scrub daemon started) must produce byte-identical traces to a run with
integrity off, and an armed-but-empty fault campaign must change nothing
either.
"""

from repro import FaultPlan, NetStorageSystem, Simulator, SystemConfig
from repro.sim.units import mib


def _trace(integrity: bool, arm_empty_plan: bool = False,
           seed: int = 11) -> str:
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        seed=seed, observability=True, integrity=integrity))
    system.start()
    system.create("/projects/results.h5")
    system.create("/scratch/tmp")
    if arm_empty_plan:
        system.attach_faults(FaultPlan())

    def client():
        yield system.write("/projects/results.h5", 0, mib(2))
        yield system.read("/projects/results.h5", 0, mib(2))
        yield system.write("/scratch/tmp", 0, mib(1))
        yield system.read("/scratch/tmp", 0, mib(1))

    sim.process(client())
    sim.run(until=30.0)
    return system.obs.tracer.to_json()


def test_integrity_off_vs_on_byte_identical():
    assert _trace(integrity=False) == _trace(integrity=True)


def test_empty_campaign_is_trace_neutral():
    # Arming an empty FaultPlan (the control campaign) with integrity on
    # must cost nothing either.
    assert _trace(integrity=True) == \
        _trace(integrity=True, arm_empty_plan=True)


def test_clean_run_summary_is_all_zero():
    sim = Simulator()
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        seed=11, integrity=True))
    system.start()
    system.create("/a")
    sim.run(until=system.write("/a", 0, mib(1)))
    sim.run(until=system.read("/a", 0, mib(1)))
    assert all(v == 0.0 for v in system.integrity.summary().values())
    # ... and the ledger is surfaced through the management report.
    assert system.report()["integrity.injected"] == 0.0
