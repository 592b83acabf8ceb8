"""Zero-cost observability contract: instrumentation must be invisible.

The telemetry layers — tracer, event log, labeled series, SLO monitor,
kernel profiler — are observers.  Turning any of them on or off must not
change a single simulated timestamp or result, on the fault branches as
much as on the clean path; turning them all off must leave nothing
allocated or buffered behind them.
"""

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.fs.policies import FilePolicy
from repro.sim.units import kib, mib

_BLOCK = kib(64)


def _run_workload(observability: bool, profiler: bool = False,
                  seed: int = 11, faults: bool = False):
    """Quickstart-sized workload; returns (sim, system, io completion log).

    ``faults`` swaps in the integrity workload, which drives every fault
    branch of the cache read and destage paths (see :func:`_fault_client`).
    """
    sim = Simulator()
    if profiler:
        sim.attach_profiler()
    # The fault workload uses 16-block caches so its filler writes push
    # blocks out of every cache.
    extra = (dict(cache_bytes_per_blade=_BLOCK * 16, integrity=True)
             if faults else {})
    system = NetStorageSystem(sim, SystemConfig(
        blade_count=4, disk_count=16, disk_capacity=mib(512),
        seed=seed, observability=observability, **extra))
    system.start()
    if faults:
        log = []
        sim.process(_fault_client(sim, system, log))
        sim.run(until=60.0)
        return sim, system, log
    system.create("/projects/results.h5")
    system.create("/scratch/tmp")
    log = []

    def client():
        yield system.write("/projects/results.h5", 0, mib(2))
        log.append(("w1", sim.now))
        yield system.read("/projects/results.h5", 0, mib(2))
        log.append(("r1", sim.now))
        yield system.write("/scratch/tmp", 0, mib(1))
        log.append(("w2", sim.now))
        yield system.read("/scratch/tmp", 0, mib(1))
        log.append(("r2", sim.now))

    sim.process(client())
    sim.run(until=30.0)
    return sim, system, log


def _fault_client(sim, system, log):
    """Reach each integrity branch of the pooled cache once, through the
    public fault hooks, logging every completion (failures included)."""
    cache, pfs = system.cache, system.pfs
    system.create("/hot")
    system.create("/solo", FilePolicy(write_fault_tolerance=1))
    system.create("/filler", FilePolicy(write_fault_tolerance=1))
    system.create("/cold")

    def block(path, index):
        inode = pfs.open(path)
        return (pfs.block_key(inode, index),
                pfs.blade_for_block(inode, index))

    def step(label, event):
        try:
            value = yield event
        except Exception as exc:
            log.append((label, sim.now, "failed", type(exc).__name__))
        else:
            log.append((label, sim.now, value))

    yield from step("write.hot", system.write("/hot", 0, _BLOCK * 8))
    yield from step("write.solo", system.write("/solo", 0, _BLOCK * 8))
    yield from step("drain", cache.drain_dirty())

    # Local hit on a damaged copy, clean replica on a peer: replica repair.
    key, blade = block("/hot", 0)
    cache.corrupt_cached(blade, key)
    yield from step("read.local_replica", system.read("/hot", 0, _BLOCK))
    # Local hit on a damaged copy nobody else holds: disk refill.
    key, blade = block("/solo", 0)
    cache.corrupt_cached(blade, key)
    yield from step("read.local_disk", system.read("/solo", 0, _BLOCK))
    # Every peer copy damaged: the fill is refused, disk serves instead.
    key, _blade = block("/hot", 1)
    holders = cache.directory.holders(key)
    for holder in sorted(holders):
        cache.corrupt_cached(holder, key)
    reader = min(set(cache.blades) - holders)
    yield from step("read.peer_rejected", cache.read(reader, key))
    # Damage on the wire: one retransmit.
    key, _blade = block("/hot", 2)
    reader = min(set(cache.blades) - cache.directory.holders(key))
    cache.corrupt_next_fill(1)
    yield from step("read.retransmit", cache.read(reader, key))
    # A backing read error fails the client read.
    cache.inject_backing_faults(1, "read")
    yield from step("read.backing_error", system.read("/cold", 0, _BLOCK))

    # Dirty blocks, while the busy destagers leave the tail of the burst
    # queued: a local hit with the only replica damaged too is
    # unrepairable; at destage a damaged owner copy is repaired from its
    # replica, or counted unrepairable when the replica is damaged too.
    yield from step("write.burst", system.write("/hot", _BLOCK * 8,
                                                _BLOCK * 12))
    key, blade = block("/hot", 8)
    for holder in sorted(cache.directory.holders(key)):
        cache.corrupt_cached(holder, key)
    yield from step("read.local_unrepairable",
                    system.read("/hot", _BLOCK * 8, _BLOCK))
    key, blade = block("/hot", 18)
    cache.corrupt_cached(blade, key)
    key, _blade = block("/hot", 19)
    for holder in sorted(cache.directory.holders(key)):
        cache.corrupt_cached(holder, key)
    yield from step("drain.verify", cache.drain_dirty())

    # At-rest corruption under blocks the filler pushed out of every
    # cache: the misses escalate through the repair chain.
    for half in (0, 32):
        yield from step("write.filler", system.write(
            "/filler", _BLOCK * half, _BLOCK * 32))
        yield from step("drain.filler", cache.drain_dirty())
    log.append(("at_rest", sum(system.inject_at_rest_corruption(d)
                               for d in range(16))))
    yield from step("read.at_rest", system.read("/solo", 0, _BLOCK * 8))


def test_observability_off_leaves_everything_inert():
    sim, system, log = _run_workload(observability=False)
    assert sim.obs is None
    assert sim.profiler is None
    assert system.obs is None
    assert len(log) == 4


def test_observability_does_not_change_simulated_time():
    # Same seed, instrumentation on vs off: every client completion lands
    # at the identical simulated instant, and the kernel clock agrees.
    sim_off, _sys_off, log_off = _run_workload(observability=False)
    sim_on, sys_on, log_on = _run_workload(observability=True)
    assert log_on == log_off
    assert sim_on.now == sim_off.now
    # And the instrumented run actually observed things: the cache and
    # links emitted labeled series while timing stayed untouched.
    assert len(sys_on.obs.series) > 0
    assert sys_on.obs.series.match("cache.write_latency_s")


def test_profiler_does_not_change_simulated_time():
    _sim_plain, _s, log_plain = _run_workload(observability=True)
    sim_prof, _s2, log_prof = _run_workload(observability=True,
                                            profiler=True)
    assert log_prof == log_plain
    assert sim_prof.profiler.events_seen == sim_prof.events_processed


def test_series_and_slo_stay_empty_when_disabled():
    sim, _system, _log = _run_workload(observability=False)
    # Nothing may have lazily created an observability bundle.
    assert sim.obs is None
    # A fresh bundle attached after the fact starts empty: no emitter
    # buffered anything while obs was off.
    from repro.obs import enable
    obs = enable(sim)
    assert len(obs.series) == 0
    assert obs.slo.alerts == []
    assert obs.slo.evaluations == 0


def test_event_counts_identical_with_observability_off_and_on_reruns():
    # Determinism of the uninstrumented path itself: two obs-off
    # runs dispatch exactly the same number of kernel events.
    a, _sa, _la = _run_workload(observability=False)
    b, _sb, _lb = _run_workload(observability=False)
    assert a.events_processed == b.events_processed
    assert a.now == b.now


def test_fault_branches_identical_with_observability_off_and_on():
    # The read path's fault branches (local repair, refused peer fill,
    # wire retransmit, backing errors, at-rest repair through the chain)
    # and destage verification must be observer-invisible too.
    sim_off, sys_off, log_off = _run_workload(observability=False,
                                              faults=True)
    sim_on, sys_on, log_on = _run_workload(observability=True, faults=True)
    assert log_on == log_off
    assert sys_on.report() == sys_off.report()
    assert sim_on.events_processed == sim_off.events_processed
    assert sim_on.now == sim_off.now
    assert sys_off.obs is None and sys_on.obs is not None
    report = sys_off.report()
    for counter in ("read.local_hit", "read.remote_hit", "read.miss",
                    "read.backing_errors",
                    "integrity.cache_detected",
                    "integrity.cache_repaired.replica",
                    "integrity.cache_repaired.disk",
                    "integrity.cache_unrepairable",
                    "integrity.peer_fill_rejected",
                    "integrity.fill_retransmits",
                    "integrity.backing_repaired"):
        assert report[counter] > 0, counter
    # One replica repair and one unrepairable each on the read path and
    # at destage verification.
    assert report["integrity.cache_repaired.replica"] == 2
    assert report["integrity.cache_unrepairable"] == 2
    assert any(entry[2] == "failed" for entry in log_off)


def _cache_bench_stream(observability: bool):
    """A planned cache bench (blades over the aggregate farm) read by a
    small client fleet; returns (sim, per-client finish times)."""
    from repro.obs import enable
    from repro.plan import CacheBenchSpec, plan_cache_bench
    from repro.workloads import run_client_fleet

    sim = Simulator()
    if observability:
        enable(sim)
    cluster = plan_cache_bench(CacheBenchSpec(blade_count=2,
                                              replication=1)).build(sim).cluster

    def make_issue(client):
        return lambda block: cluster.read(client % 2, ("shared", block))

    fleet = run_client_fleet(sim, 4, make_issue, 24, _BLOCK, window=4)
    sim.run()
    return sim, [s.finished_at for s in fleet]


def test_cache_bench_farm_dispatches_the_same_events_with_obs_on_and_off():
    # The aggregate farm behind every planned cache bench takes one path
    # whether or not anything observes it.
    sim_off, finish_off = _cache_bench_stream(observability=False)
    sim_on, finish_on = _cache_bench_stream(observability=True)
    assert None not in finish_off
    assert finish_on == finish_off
    assert sim_on.events_processed == sim_off.events_processed
