"""RAID: layouts, parity math, arrays, declustered pools, and rebuild jobs."""

from .array import RaidArray, UnrecoverableArrayError, coalesce
from .decluster import DeclusteredPool
from .layout import ChunkAddress, IoOp, RaidLayout, RaidLevel
from .parity import (
    gf_div,
    gf_mul,
    gf_mul_block,
    gf_pow,
    mirror_copies,
    raid5_reconstruct,
    raid6_pq,
    raid6_recover_one_data,
    raid6_recover_two_data,
    xor_parity,
)
from .rebuild import rebuild_job

__all__ = [
    "ChunkAddress",
    "DeclusteredPool",
    "IoOp",
    "RaidArray",
    "RaidLayout",
    "RaidLevel",
    "UnrecoverableArrayError",
    "coalesce",
    "gf_div",
    "gf_mul",
    "gf_mul_block",
    "gf_pow",
    "mirror_copies",
    "raid5_reconstruct",
    "raid6_pq",
    "raid6_recover_one_data",
    "raid6_recover_two_data",
    "rebuild_job",
    "xor_parity",
]
