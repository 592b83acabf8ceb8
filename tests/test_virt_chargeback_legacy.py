"""Unit tests for charge-back accounting and legacy pool integration."""

import pytest

from repro.sim import Simulator
from repro.sim.units import GiB
from repro.virt import (
    Allocator,
    ChargebackMeter,
    DemandMappedDevice,
    LegacyArray,
    StoragePool,
    absorb_legacy_array,
    evacuate_pool,
)

PAGE = 1024 * 1024  # 1 MiB pages for billing realism


def make_allocator(pages=8192):
    return Allocator([StoragePool("main", pages * PAGE, PAGE)])


class TestChargeback:
    def test_bills_actual_usage_not_virtual_size(self):
        sim = Simulator()
        alloc = make_allocator()
        meter = ChargebackMeter(sim)
        dmsd = DemandMappedDevice("d", 100 * GiB, alloc, owner="physics")
        meter.register(dmsd)

        def proc():
            dmsd.write(0, GiB)  # map 1 GiB
            meter.sample()
            yield sim.timeout(3600.0)  # one hour
            meter.sample()

        sim.process(proc())
        sim.run()
        assert meter.gib_hours("physics") == pytest.approx(1.0, rel=0.01)

    def test_bill_report(self):
        sim = Simulator()
        alloc = make_allocator()
        meter = ChargebackMeter(sim)
        d1 = DemandMappedDevice("d1", 10 * GiB, alloc, owner="a")
        d2 = DemandMappedDevice("d2", 10 * GiB, alloc, owner="b")
        meter.register(d1)
        meter.register(d2)

        def proc():
            d1.write(0, 2 * GiB)
            d2.write(0, GiB)
            meter.sample()
            yield sim.timeout(3600.0)
            meter.sample()

        sim.process(proc())
        sim.run()
        bill = meter.bill(rate_per_gib_hour=0.5)
        assert bill["a"] == pytest.approx(1.0, rel=0.01)
        assert bill["b"] == pytest.approx(0.5, rel=0.01)

    def test_admin_operations_counted(self):
        sim = Simulator()
        meter = ChargebackMeter(sim)
        meter.record_admin_op("a")
        meter.record_admin_op("a")
        meter.record_admin_op("b")
        assert meter.admin_operations == {"a": 2, "b": 1}
        assert meter.total_admin_operations() == 3

    def test_deleted_devices_stop_billing(self):
        sim = Simulator()
        alloc = make_allocator()
        meter = ChargebackMeter(sim)
        dmsd = DemandMappedDevice("d", 10 * GiB, alloc, owner="a")
        meter.register(dmsd)

        def proc():
            dmsd.write(0, GiB)
            meter.sample()
            yield sim.timeout(3600.0)
            meter.sample()
            dmsd.delete()
            yield sim.timeout(3600.0)
            meter.sample()

        sim.process(proc())
        sim.run()
        assert meter.gib_hours("a") == pytest.approx(1.0, rel=0.01)


class TestLegacyIntegration:
    def test_absorb_and_allocate_by_tier(self):
        alloc = make_allocator(pages=16)
        legacy = LegacyArray("old-emc", 32 * PAGE, PAGE, vendor="EMC")
        absorb_legacy_array(alloc, legacy)
        ref = alloc.allocate(tier="legacy")
        assert ref.pool == "old-emc"
        assert legacy.profile.read_latency > 0

    def test_dmsd_can_live_on_legacy_tier(self):
        alloc = make_allocator(pages=16)
        absorb_legacy_array(alloc, LegacyArray("old", 32 * PAGE, PAGE))
        dmsd = DemandMappedDevice("archive", 100 * PAGE, alloc, tier="legacy")
        dmsd.write(0, 2 * PAGE)
        assert alloc.pools["old"].used_pages == 2
        assert alloc.pools["main"].used_pages == 0

    def test_evacuate_blocked_while_in_use(self):
        alloc = make_allocator(pages=16)
        absorb_legacy_array(alloc, LegacyArray("old", 32 * PAGE, PAGE))
        dmsd = DemandMappedDevice("d", 100 * PAGE, alloc, tier="legacy")
        dmsd.write(0, PAGE)
        assert evacuate_pool(alloc, "old") == 1
        assert "old" in alloc.pools
        dmsd.delete()
        assert evacuate_pool(alloc, "old") == 0
        assert "old" not in alloc.pools

    def test_evacuate_unknown_pool(self):
        alloc = make_allocator()
        with pytest.raises(ValueError):
            evacuate_pool(alloc, "ghost")
