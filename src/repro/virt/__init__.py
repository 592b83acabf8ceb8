"""Storage virtualization: pools, DMSDs, snapshots, charge-back (§3)."""

from .allocator import AllocationError, Allocator, PageRef, StoragePool
from .chargeback import ChargebackMeter
from .dmsd import MAX_DMSD_BYTES, DemandMappedDevice, DmsdError
from .legacy import LegacyArray, LegacyProfile, absorb_legacy_array, evacuate_pool
from .remap import MigrationReport, PageMigrator
from .snapshot import Snapshot, take_snapshot

__all__ = [
    "MAX_DMSD_BYTES",
    "AllocationError",
    "Allocator",
    "ChargebackMeter",
    "DemandMappedDevice",
    "DmsdError",
    "LegacyArray",
    "LegacyProfile",
    "MigrationReport",
    "PageMigrator",
    "PageRef",
    "Snapshot",
    "StoragePool",
    "absorb_legacy_array",
    "evacuate_pool",
    "take_snapshot",
]
