"""Unit tests for protocol exports: streaming, HTTP, FTP."""

import pytest

from repro.protocols import (
    DirectHttpExport,
    FtpExport,
    ServerMediatedExport,
    figure1_configuration,
)
from repro.sim import FairShareLink, Simulator
from repro.sim.units import gb, gbps, mib


def run_stream(blade_count, total=gb(2), port_rate_gb=10.0):
    sim = Simulator()
    agg = figure1_configuration(sim, blade_count=blade_count,
                                port_rate_gb=port_rate_gb)
    ev = agg.stream(total)
    result = sim.run(until=ev)
    return result


class TestStripedStreaming:
    def test_single_blade_limited_by_fc(self):
        result = run_stream(1)
        # One blade: 2 × 2 Gb/s FC is the ceiling.
        assert result.gbps <= 4.0 + 0.2
        assert result.gbps > 2.5

    def test_four_blades_reach_the_neighborhood_of_10gbs(self):
        """Figure 1 / §8: four blades aggregate 'in the neighborhood of
        10 Gbs' — bounded by the shared PCI-X bus (~8.5 Gb/s)."""
        result = run_stream(4)
        assert result.gbps > 7.0
        assert result.blades_used == 4

    def test_scaling_is_monotonic_until_saturation(self):
        rates = [run_stream(n).gbps for n in (1, 2, 4)]
        assert rates[0] < rates[1] < rates[2]

    def test_failed_blade_excluded(self):
        sim = Simulator()
        agg = figure1_configuration(sim, blade_count=4)
        agg.blades[0].fail()
        ev = agg.stream(gb(1))
        result = sim.run(until=ev)
        assert result.blades_used == 3

    def test_all_blades_down_fails(self):
        sim = Simulator()
        agg = figure1_configuration(sim, blade_count=1)
        agg.blades[0].fail()
        ev = agg.stream(gb(1))
        with pytest.raises(RuntimeError):
            sim.run(until=ev)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            figure1_configuration(sim, blade_count=0)
        agg = figure1_configuration(sim, blade_count=1)
        with pytest.raises(ValueError):
            agg.stream(0)


class TestHttpFtp:
    def test_direct_beats_server_mediated(self):
        sim = Simulator()
        client = FairShareLink(sim, gbps(1), name="client")
        server_in = FairShareLink(sim, gbps(1), name="srv")
        client2 = FairShareLink(sim, gbps(1), name="client2")

        def storage_read(nbytes):
            return sim.timeout(nbytes / 2.5e8)  # 2 Gb/s storage feed

        direct = DirectHttpExport(sim, storage_read, client)
        mediated = ServerMediatedExport(sim, storage_read, server_in, client2)
        times = {}

        def proc():
            t0 = sim.now
            yield direct.get(mib(64))
            times["direct"] = sim.now - t0
            t0 = sim.now
            yield mediated.get(mib(64))
            times["mediated"] = sim.now - t0

        sim.process(proc())
        sim.run()
        assert times["direct"] < times["mediated"]
        assert direct.requests_served == 1
        assert mediated.requests_served == 1

    def test_ftp_whole_file(self):
        sim = Simulator()
        client = FairShareLink(sim, gbps(1), name="c")
        ftp = FtpExport(sim, lambda n: sim.timeout(n / 2.5e8), client)

        def proc():
            got = yield ftp.retr(mib(16))
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == mib(16)
        assert ftp.transfers_completed == 1
        with pytest.raises(ValueError):
            ftp.retr(0)
