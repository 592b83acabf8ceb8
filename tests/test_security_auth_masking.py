"""Unit tests for LUN masking, zoning, and the audit log."""

import pytest

from repro.security import (
    AuditLog,
    LunMaskingTable,
    MaskingViolation,
    SecureInstallation,
    Zone,
    hardened_installation,
    naive_installation,
)


class TestLunMasking:
    def make(self):
        table = LunMaskingTable()
        table.register_lun("lun0", owner="physics")
        table.register_lun("lun1", owner="chemistry")
        table.expose("wwn-host-a", "lun0")
        table.expose("wwn-host-b", "lun1")
        table.expose("wwn-host-b", "lun0", read_only=True)
        return table

    def test_visibility_is_per_initiator(self):
        table = self.make()
        assert table.visible_luns("wwn-host-a") == {"lun0"}
        assert table.visible_luns("wwn-host-b") == {"lun0", "lun1"}
        assert table.visible_luns("wwn-intruder") == set()

    def test_access_checks(self):
        table = self.make()
        assert table.check("wwn-host-a", "lun0", "read")
        assert not table.check("wwn-host-a", "lun1", "read")
        assert not table.check("wwn-intruder", "lun0", "read")

    def test_read_only_exposure(self):
        table = self.make()
        assert table.check("wwn-host-b", "lun0", "read")
        assert not table.check("wwn-host-b", "lun0", "write")

    def test_require_raises(self):
        table = self.make()
        with pytest.raises(MaskingViolation):
            table.require("wwn-intruder", "lun0", "read")

    def test_revoke(self):
        table = self.make()
        table.revoke("wwn-host-a", "lun0")
        assert not table.check("wwn-host-a", "lun0", "read")

    def test_unknown_lun_rejected(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.expose("wwn-host-a", "ghost")
        with pytest.raises(ValueError):
            table.register_lun("lun0")

    def test_denials_audited(self):
        table = self.make()
        table.check("wwn-intruder", "lun0", "read")
        assert len(table.audit.denied()) == 1


class TestZoning:
    def test_hardened_blocks_attack_suite(self):
        inst = hardened_installation()
        results = inst.run_attack_suite()
        assert all(r.blocked for r in results)

    def test_naive_installation_is_porous(self):
        inst = naive_installation()
        results = inst.run_attack_suite()
        blocked = sum(1 for r in results if r.blocked)
        # Only the no-user-code property is architectural; everything
        # else is wide open on a flat SAN.
        assert blocked <= 2
        names_open = {r.name for r in results if not r.blocked}
        assert "cross_fabric" in names_open
        assert "stolen_disk" in names_open

    def test_selective_inband_disable(self):
        inst = SecureInstallation()
        inst.disable_inband_command("p1", "modify_masking")
        assert inst.attempt_inband_control("p1", "modify_masking").blocked
        assert not inst.attempt_inband_control("p1", "read_config").blocked
        assert not inst.attempt_inband_control("p2", "modify_masking").blocked

    def test_unknown_command_rejected(self):
        inst = SecureInstallation()
        with pytest.raises(ValueError):
            inst.disable_inband_command("p1", "rm_rf")

    def test_user_code_always_blocked(self):
        for inst in (hardened_installation(), naive_installation()):
            assert inst.attempt_user_code("evil()").blocked

    def test_mgmt_zone_isolated(self):
        inst = SecureInstallation()
        res = inst.attempt_cross_fabric(Zone.HOST_FABRIC, Zone.MGMT_NET)
        assert res.blocked


class TestAuditLog:
    def test_chain_verifies(self):
        log = AuditLog()
        for i in range(5):
            log.record(float(i), "actor", "act", "allowed")
        assert log.verify_chain()
        assert len(log) == 5

    def test_tampering_detected(self):
        log = AuditLog()
        log.record(0.0, "a", "x", "allowed")
        log.record(1.0, "b", "y", "denied")
        log.events[0] = type(log.events[0])(
            0.0, "a", "x", "denied", "", log.events[0].chain)
        assert not log.verify_chain()

    def test_filters(self):
        log = AuditLog()
        log.record(0.0, "a", "x", "allowed")
        log.record(1.0, "b", "y", "denied")
        assert len(log.allowed()) == 1
        assert len(log.denied()) == 1
