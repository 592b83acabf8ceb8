"""Parallel file system with extended per-file policy metadata (§4)."""

from .hostfs import DistributedLockManager, HostSharedFileSystem, LockMode
from .metadata import FILE_ADDRESS_SPACE, Inode, InodeType
from .namespace import FsError, Namespace, split_path
from .pfs import ParallelFileSystem
from .policies import (
    CRITICAL,
    DEFAULT_POLICY,
    PROJECT_DATA,
    SCRATCH,
    FilePolicy,
    PolicyLimits,
    ReplicationMode,
)

__all__ = [
    "CRITICAL",
    "DEFAULT_POLICY",
    "DistributedLockManager",
    "FILE_ADDRESS_SPACE",
    "HostSharedFileSystem",
    "LockMode",
    "FilePolicy",
    "FsError",
    "Inode",
    "InodeType",
    "Namespace",
    "PROJECT_DATA",
    "ParallelFileSystem",
    "PolicyLimits",
    "ReplicationMode",
    "SCRATCH",
    "split_path",
]
