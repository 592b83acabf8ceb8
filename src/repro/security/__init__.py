"""Data security: LUN masking, encryption, fabric zoning, audit (§5)."""

from .audit import AuditEvent, AuditLog
from .crypto import (
    CryptoCostModel,
    EncryptedBlockStore,
    StreamCipher,
    derive_key,
)
from .lun_masking import LunMaskingTable, MaskingViolation
from .zones import (
    CONTROL_COMMANDS,
    AttackResult,
    SecureInstallation,
    Zone,
    ZoneConfig,
    hardened_installation,
    naive_installation,
    secure_default_zones,
)

__all__ = [
    "CONTROL_COMMANDS",
    "AttackResult",
    "AuditEvent",
    "AuditLog",
    "CryptoCostModel",
    "EncryptedBlockStore",
    "LunMaskingTable",
    "MaskingViolation",
    "SecureInstallation",
    "StreamCipher",
    "Zone",
    "ZoneConfig",
    "derive_key",
    "hardened_installation",
    "naive_installation",
    "secure_default_zones",
]
