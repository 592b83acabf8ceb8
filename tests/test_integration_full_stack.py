"""Full-stack integration scenarios across every subsystem, plus determinism."""

import pytest

from repro import NetStorageSystem, Simulator, SystemConfig
from repro.fs import CRITICAL, SCRATCH, FilePolicy
from repro.protocols import DirectHttpExport, FtpExport
from repro.sim import FairShareLink
from repro.sim.units import gbps, kib, mib


def small_config(**overrides):
    defaults = dict(blade_count=4, disk_count=12, disk_capacity=mib(64),
                    cache_bytes_per_blade=mib(8), replication=2, seed=7)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def test_mixed_policy_workload_with_faults_end_to_end():
    """Clients with different policies, a blade death, a disk death with
    distributed rebuild, and a rolling upgrade — one continuous run."""
    sim = Simulator()
    system = NetStorageSystem(sim, small_config(blade_count=5))
    system.start()
    system.create("/scratch/a", policy=SCRATCH)
    system.create("/results/b", policy=CRITICAL)
    outcomes = {}

    def scenario():
        yield system.write("/results/b", 0, mib(2))
        yield system.write("/scratch/a", 0, mib(2))
        # Blade failure: critical data (3-way) survives.
        system.cluster.blade(0).fail()
        yield sim.timeout(1.0)
        yield system.read("/results/b", 0, mib(2))
        # Losses are allowed only for the scratch file (fault tolerance 1
        # by its own policy); the critical file's 3-way blocks survive.
        critical_ino = system.pfs.open("/results/b").ino
        outcomes["critical_lost"] = sum(
            1 for key in system.cache.lost_dirty_blocks
            if key[1] == critical_ino)
        system.cluster.blade(0).repair()
        # Disk failure + rebuild while serving.
        job = system.fail_disk_and_rebuild(3)
        while not job.done:
            yield system.read("/results/b", 0, kib(256))
            yield sim.timeout(0.05)
        outcomes["rebuild"] = job.progress
        # Rolling upgrade with service continuing.
        upgrade = system.cluster.rolling_upgrade(duration_per_blade=2.0,
                                                 min_live=3)
        proc = upgrade.start()
        while proc.is_alive:
            yield system.read("/scratch/a", 0, kib(64))
            yield sim.timeout(0.25)
        outcomes["upgraded"] = len(upgrade.upgraded)

    sim.process(scenario())
    sim.run(until=600.0)
    assert outcomes["critical_lost"] == 0
    assert outcomes["rebuild"] == 1.0
    assert outcomes["upgraded"] == 5
    assert system.cluster.service_availability() == 1.0


def test_protocol_heads_share_one_pool():
    """HTTP and FTP exports on the blades front the same system."""
    sim = Simulator()
    system = NetStorageSystem(sim, small_config())
    system.start()
    client = FairShareLink(sim, gbps(1), name="client")
    # Both heads fetch content through the same cache/pool path.
    http = DirectHttpExport(sim, system.raw_read, client)
    ftp = FtpExport(sim, system.raw_read, client)
    results = {}

    def clients():
        yield system.raw_write(mib(4))
        results["http"] = yield http.get(mib(2))
        results["ftp"] = yield ftp.retr(mib(2))

    sim.process(clients())
    sim.run(until=30.0)
    assert results["http"] == mib(2)
    assert results["ftp"] == mib(2)
    # Every block both heads served was one the system's cache had staged.
    reads = system.cache.metrics.snapshot()
    hits = reads["read.local_hit"] + reads["read.remote_hit"]
    assert hits == 2 * mib(2) // system.config.block_size
    assert reads["read.miss"] == 0
    assert http.requests_served == 1
    assert ftp.transfers_completed == 1


def test_same_seed_reproduces_exactly():
    """Determinism: identical (config, seed, workload) → identical report."""

    def run():
        sim = Simulator()
        system = NetStorageSystem(sim, small_config(seed=99))
        system.start()
        system.create("/f", policy=FilePolicy(write_fault_tolerance=2))

        def client():
            for i in range(10):
                yield system.write("/f", i * mib(1), mib(1))
                yield system.read("/f", 0, mib(1))

        sim.process(client())
        sim.run(until=20.0)
        report = system.report()
        report["now"] = sim.now
        report["disk_ops"] = sum(d.ops for d in system.disks)
        return report

    assert run() == run()


def test_scale_out_mid_run_adds_service_capacity():
    """§6.3: blades added 'at any time' start taking work."""
    sim = Simulator()
    system = NetStorageSystem(sim, small_config(blade_count=2))
    system.start()
    system.create("/f")

    def scenario():
        yield system.write("/f", 0, mib(1))
        system.scale_out(2)
        yield system.write("/f", mib(1), mib(2))

    sim.process(scenario())
    sim.run(until=30.0)
    assert system.cluster.membership.size == 4
    served = {bid: n for bid, n in system.cluster.balancer.dispatched.items()
              if n > 0}
    assert set(served) == {0, 1, 2, 3}  # the newcomers took work


def test_report_is_flat_floats():
    sim = Simulator()
    system = NetStorageSystem(sim, small_config())
    report = system.report()
    assert all(isinstance(v, (int, float)) for v in report.values())
