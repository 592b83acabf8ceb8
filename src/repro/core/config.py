"""System configuration: one validated object describing a deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fs.policies import PolicyLimits
from ..sim.units import gib, kib


@dataclass(frozen=True)
class SystemConfig:
    """Shape of one NetStorage deployment (a single data center).

    Defaults describe a modest era-appropriate installation: four blades
    with 4 GiB of cache each over a sixteen-spindle declustered farm.
    """

    blade_count: int = 4
    cache_bytes_per_blade: int = gib(4)
    fc_ports_per_blade: int = 2
    fc_rate_gb: float = 2.0
    replication: int = 2              # default N-way cache replication
    disk_count: int = 16
    disk_capacity: int = gib(9)       # 9 GB drives, the 2002 sweet spot
    data_per_stripe: int = 4
    block_size: int = kib(64)         # cache block == chunk == stripe unit
    seed: int = 0
    security_hardened: bool = True
    policy_limits: PolicyLimits = field(default_factory=PolicyLimits)
    name: str = "netstorage"
    #: Attach tracing + event log + management-plane telemetry at build
    #: time (see repro.obs).  Off by default: the data path then traces
    #: into the shared no-op span and records nothing.
    observability: bool = False
    #: End-to-end data integrity (see repro.integrity): disks stamp/verify
    #: block checksums, transports and fills verify digests, and the
    #: repair escalation chain (cache replica → RAID parity → geo replica)
    #: backs every verification point.  Off by default: the data path then
    #: pays only a per-operation ``is not None`` test and traces stay
    #: byte-identical to an integrity-free build.
    integrity: bool = False
    #: Background scrub verification rate, bytes/s (used only by an
    #: explicitly started scrub daemon; see NetStorageSystem.start_scrub).
    scrub_rate: float = 32 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.blade_count < 1:
            raise ValueError(f"blade_count must be >= 1, got {self.blade_count}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.replication > self.blade_count:
            raise ValueError(
                f"replication {self.replication} exceeds blade count "
                f"{self.blade_count}")
        if self.disk_count < self.data_per_stripe + 2:
            raise ValueError(
                f"disk_count {self.disk_count} too small for "
                f"{self.data_per_stripe}+1 declustered stripes plus spare")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {self.block_size}")
        if self.scrub_rate <= 0:
            raise ValueError(
                f"scrub_rate must be > 0, got {self.scrub_rate}")
