"""Unit tests for blades, ports, and paths."""

import pytest

from repro.hardware import (
    BladeFailedError,
    BladeState,
    ControllerBlade,
    NetworkPath,
    ethernet_port,
    fc_port,
    pci_x_bus,
)
from repro.sim import Simulator
from repro.sim.units import gbps, gib, to_gbps


class TestBlade:
    def test_defaults(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0)
        assert blade.name == "blade0"
        assert blade.is_up
        assert len(blade.fc_ports) == 2
        assert blade.cache_bytes == gib(4)
        assert blade.fc_bandwidth == pytest.approx(2 * gbps(2))

    def test_execute_occupies_cpu(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0, cpu_cores=1)
        done = []

        def work(tag):
            yield from blade.execute(1.0)
            done.append((tag, sim.now))

        sim.process(work("a"))
        sim.process(work("b"))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]
        assert blade.ios_processed == 2

    def test_multi_core_parallelism(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0, cpu_cores=2)
        done = []

        def work():
            yield from blade.execute(1.0)
            done.append(sim.now)

        sim.process(work())
        sim.process(work())
        sim.run()
        assert done == [1.0, 1.0]

    def test_failed_blade_rejects_work(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0)
        blade.fail()
        assert blade.state is BladeState.FAILED

        def work():
            yield from blade.execute(1.0)

        sim.process(work())
        with pytest.raises(BladeFailedError):
            sim.run()

    def test_drain_state(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0)
        blade.drain()
        assert blade.state is BladeState.DRAINING
        blade.repair()
        assert blade.is_up

    def test_observers_notified(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0)
        seen = []
        blade.observe(lambda b: seen.append(b.state))
        blade.fail()
        blade.repair()
        assert seen == [BladeState.FAILED, BladeState.UP]

    def test_fc_round_robin(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0, fc_port_count=2)
        ports = [blade.next_fc_port() for _ in range(4)]
        assert ports[0] is ports[2]
        assert ports[1] is ports[3]
        assert ports[0] is not ports[1]

    def test_io_cpu_cost_scales_with_bytes(self):
        sim = Simulator()
        blade = ControllerBlade(sim, 0, cpu_per_io=1e-5, cpu_per_byte=1e-9)
        assert blade.io_cpu_cost(0) == pytest.approx(1e-5)
        assert blade.io_cpu_cost(10**6) == pytest.approx(1e-5 + 1e-3)

    def test_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ControllerBlade(sim, 0, cache_bytes=0)
        with pytest.raises(ValueError):
            ControllerBlade(sim, 0, fc_port_count=0)


class TestPortsAndPaths:
    def test_port_rates(self):
        sim = Simulator()
        assert to_gbps(fc_port(sim).bandwidth) == pytest.approx(2.0)
        assert to_gbps(ethernet_port(sim).bandwidth) == pytest.approx(10.0)
        assert pci_x_bus(sim).bandwidth == pytest.approx(1.064e9)

    def test_path_bottleneck_paces_transfer(self):
        sim = Simulator()
        fast = fc_port(sim, rate_gb=2.0, name="fast")
        slow = fc_port(sim, rate_gb=1.0, name="slow")
        path = NetworkPath([fast, slow])
        assert path.bottleneck_bandwidth == slow.bandwidth

        def proc():
            yield path.transfer(gbps(1))  # 1 second at 1 Gb/s
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(1.0, rel=1e-3)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            NetworkPath([])

    def test_mixed_simulator_path_rejected(self):
        a = fc_port(Simulator(), name="a")
        b = fc_port(Simulator(), name="b")
        with pytest.raises(ValueError):
            NetworkPath([a, b])
