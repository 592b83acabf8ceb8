"""Unit tests for the namespace, policies, and policy limits."""

import pytest

from repro.fs import (
    CRITICAL,
    FilePolicy,
    FsError,
    Namespace,
    PolicyLimits,
    ReplicationMode,
    split_path,
)
from repro.raid import RaidLevel


class TestSplitPath:
    def test_normalizes(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("/") == []
        assert split_path("/a//b/") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(FsError):
            split_path("a/b")


class TestNamespace:
    def test_mkdir_create_lookup(self):
        ns = Namespace()
        ns.mkdir("/projects")
        ns.create("/projects/data.h5")
        node = ns.lookup("/projects/data.h5")
        assert node.is_file
        assert ns.lookup("/projects").is_dir

    def test_mkdirs_intermediate(self):
        ns = Namespace()
        ns.mkdirs("/a/b/c")
        assert ns.lookup("/a/b/c").is_dir
        ns.mkdirs("/a/b/c")  # idempotent

    def test_create_requires_parent(self):
        ns = Namespace()
        with pytest.raises(FsError):
            ns.create("/missing/file")

    def test_duplicate_rejected(self):
        ns = Namespace()
        ns.create("/f")
        with pytest.raises(FsError):
            ns.create("/f")
        with pytest.raises(FsError):
            ns.mkdir("/f")

    def test_unlink(self):
        ns = Namespace()
        ns.create("/f")
        ns.unlink("/f")
        with pytest.raises(FsError):
            ns.lookup("/f")
        with pytest.raises(FsError):
            ns.unlink("/f")

    def test_unlink_nonempty_dir_rejected(self):
        ns = Namespace()
        ns.mkdir("/d")
        ns.create("/d/f")
        with pytest.raises(FsError):
            ns.unlink("/d")
        ns.unlink("/d/f")
        ns.unlink("/d")

    def test_listdir_and_walk(self):
        ns = Namespace()
        ns.mkdirs("/x/y")
        ns.create("/x/f1")
        ns.create("/x/y/f2")
        assert sorted(ns.lookup("/x").children) == ["f1", "y"]
        files = [p for p, _ in ns.walk_files()]
        assert files == ["/x/f1", "/x/y/f2"]

    def test_file_is_not_a_directory(self):
        ns = Namespace()
        ns.create("/f")
        with pytest.raises(FsError):
            ns.create("/f/child")
        with pytest.raises(FsError):
            ns.lookup("/f/child")


class TestFilePolicy:
    def test_defaults_valid(self):
        p = FilePolicy()
        assert p.replication_mode is ReplicationMode.NONE
        assert p.write_fault_tolerance == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FilePolicy(cache_priority=10)
        with pytest.raises(ValueError):
            FilePolicy(write_fault_tolerance=0)
        with pytest.raises(ValueError):
            FilePolicy(replication_sites=-1)
        with pytest.raises(ValueError):
            FilePolicy(min_distance_km=-5)
        with pytest.raises(ValueError):
            FilePolicy(replication_sites=2)  # mode NONE

    def test_presets(self):
        assert CRITICAL.replication_mode is ReplicationMode.SYNC
        assert CRITICAL.raid_override is RaidLevel.RAID10


class TestPolicyLimits:
    def test_clamps_numeric_fields(self):
        limits = PolicyLimits(max_cache_priority=5,
                              max_write_fault_tolerance=2,
                              max_replication_sites=1)
        effective = limits.clamp(CRITICAL)
        assert effective.cache_priority == 5
        assert effective.write_fault_tolerance == 2
        assert effective.replication_sites == 1

    def test_sync_downgraded_when_disallowed(self):
        limits = PolicyLimits(allow_sync_replication=False)
        effective = limits.clamp(CRITICAL)
        assert effective.replication_mode is ReplicationMode.ASYNC

    def test_raid_override_filtered(self):
        limits = PolicyLimits(allowed_raid_levels=frozenset({RaidLevel.RAID5}))
        effective = limits.clamp(CRITICAL)  # asks for RAID10
        assert effective.raid_override is None
        ok = limits.clamp(FilePolicy(raid_override=RaidLevel.RAID5))
        assert ok.raid_override is RaidLevel.RAID5

    def test_within_limits_unchanged(self):
        limits = PolicyLimits()
        assert limits.clamp(CRITICAL) == CRITICAL
