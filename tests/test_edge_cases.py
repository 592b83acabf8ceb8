"""Edge-case sweep across modules: paths not covered by the main suites."""

import pytest

from repro.core import format_table
from repro.geo import Site
from repro.sim import Simulator, Store
from repro.sim.units import fmt_bytes, fmt_rate, gbps, mib


class TestReportFormatting:
    def test_numeric_right_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = table.splitlines()
        # Numeric cells end at the same column (right-aligned).
        assert lines[2].rstrip().endswith("1.5")
        assert lines[3].rstrip().endswith("22.25")

    def test_large_and_tiny_floats_use_compact_form(self):
        table = format_table(["v"], [[123456.0], [0.000012], [0.0]])
        assert "1.23e+05" in table
        assert "1.2e-05" in table

    def test_title_and_empty_rows(self):
        table = format_table(["a"], [], title="empty")
        assert table.startswith("empty")
        assert "-" in table


class TestUnitsFormatting:
    def test_fmt_bytes_extremes(self):
        assert fmt_bytes(0) == "0 B"
        assert "PiB" in fmt_bytes(float(1 << 62))

    def test_fmt_rate_small(self):
        assert "Mb/s" in fmt_rate(1000.0)


class TestSiteBackendDelegation:
    def test_backend_replaces_store_model(self):
        sim = Simulator()
        calls = []

        def backend(nbytes):
            calls.append(nbytes)
            return sim.timeout(0.5, value=nbytes)

        site = Site(sim, "s", backend_read=backend, backend_write=backend)

        def proc():
            yield site.store_read(100)
            yield site.store_write(200)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert calls == [100, 200]
        assert p.value == pytest.approx(1.0)  # backend timing, not link
        assert site.bytes_read == 100
        assert site.bytes_written == 200

    def test_failed_site_beats_backend(self):
        sim = Simulator()
        site = Site(sim, "s", backend_read=lambda n: sim.timeout(0, value=n))
        site.fail()
        caught = []

        def proc():
            try:
                yield site.store_read(10)
            except Exception:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]


class TestStoreAndSimMisc:
    def test_store_len_tracks_items(self):
        sim = Simulator()
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestDiskSequentialAfterRepair:
    def test_repair_resets_head_position(self):
        from repro.hardware import Disk
        sim = Simulator()
        disk = Disk(sim, mib(64))

        def proc():
            yield disk.read(0, mib(1))
            # Sequential continuation would be cheap...
            seq = disk.service_time(mib(1), mib(1))
            disk.fail()
            disk.repair()
            # ...but a replaced drive has no head-position history.
            fresh = disk.service_time(mib(1), mib(1))
            return seq, fresh

        p = sim.process(proc())
        sim.run()
        seq, fresh = p.value
        assert fresh > seq


class TestMirrorRoundRobinUnderLoad:
    def test_raid1_reads_split_between_mirrors(self):
        from repro.hardware import make_disk_farm
        from repro.raid import RaidArray, RaidLevel
        sim = Simulator()
        kb = 64 * 1024
        arr = RaidArray(sim, make_disk_farm(sim, 2, mib(16)),
                        RaidLevel.RAID1, chunk_size=kb)

        def proc():
            for i in range(8):
                yield arr.read((i % 4) * kb, kb)

        sim.process(proc())
        sim.run()
        ops = [d.ops for d in arr.disks]
        assert ops[0] == ops[1] == 4


class TestWanEncryptionDefaults:
    def test_metacenter_links_encrypted_by_default(self):
        from repro.core import SystemConfig
        from repro.geo import MetadataCenter
        from repro.plan import SiteSpec
        sim = Simulator()
        center = MetadataCenter(sim, [SiteSpec("a"),
                                      SiteSpec("b", (0.0, 100.0))],
                                config=SystemConfig(
                                    blade_count=2, disk_count=8,
                                    disk_capacity=mib(32),
                                    cache_bytes_per_blade=mib(4)))
        center.connect("a", "b", bandwidth=gbps(2.5))
        sites = center.network.sites
        link = center.network.route(sites["a"], sites["b"])[0]
        assert link.encrypted
        assert link.crypto_mode == "hardware"
        assert link.bandwidth == pytest.approx(gbps(2.5))  # wire speed kept
