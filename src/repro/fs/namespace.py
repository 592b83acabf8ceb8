"""Hierarchical namespace: the directory tree over inodes."""

from __future__ import annotations

from itertools import count

from .metadata import Inode, InodeType
from .policies import DEFAULT_POLICY, FilePolicy


class FsError(Exception):
    """Namespace operation failure (missing path, type mismatch, ...)."""


def split_path(path: str) -> list[str]:
    """Normalize an absolute path into components."""
    if not path.startswith("/"):
        raise FsError(f"paths must be absolute, got {path!r}")
    return [part for part in path.split("/") if part]


class Namespace:
    """A POSIX-ish tree of directories and files."""

    def __init__(self) -> None:
        # Per-namespace numbering: two identical runs in one process get
        # identical inode numbers, which striping (ino % blades) and the
        # trace exporter depend on for byte-identical replays.
        self._ino = count(1)
        self.root = Inode(InodeType.DIRECTORY, "/", ino=next(self._ino))

    # -- lookup -----------------------------------------------------------------

    def lookup(self, path: str) -> Inode:
        """Resolve an absolute path to its inode; FsError if missing."""
        node = self.root
        for part in split_path(path):
            if not node.is_dir:
                raise FsError(f"{node.name!r} is not a directory")
            child = node.children.get(part)
            if child is None:
                raise FsError(f"no such path: {path!r}")
            node = child
        return node

    def parent_of(self, path: str) -> tuple[Inode, str]:
        """(parent directory inode, final component) of a path."""
        parts = split_path(path)
        if not parts:
            raise FsError("the root has no parent")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self.lookup(parent_path)
        if not parent.is_dir:
            raise FsError(f"{parent_path!r} is not a directory")
        return parent, parts[-1]

    # -- mutation ----------------------------------------------------------------

    def mkdir(self, path: str, owner: str = "") -> Inode:
        """Create one directory; the parent must exist."""
        parent, name = self.parent_of(path)
        if name in parent.children:
            raise FsError(f"already exists: {path!r}")
        node = Inode(InodeType.DIRECTORY, name, owner=owner,
                     ino=next(self._ino))
        parent.children[name] = node
        return node

    def mkdirs(self, path: str, owner: str = "") -> Inode:
        """mkdir -p: create intermediate directories as needed."""
        node = self.root
        for part in split_path(path):
            child = node.children.get(part)
            if child is None:
                child = Inode(InodeType.DIRECTORY, part, owner=owner,
                              ino=next(self._ino))
                node.children[part] = child
            elif not child.is_dir:
                raise FsError(f"{part!r} exists and is not a directory")
            node = child
        return node

    def create(self, path: str, policy: FilePolicy = DEFAULT_POLICY,
               owner: str = "", now: float = 0.0) -> Inode:
        """Create a regular-file inode with the given policy."""
        parent, name = self.parent_of(path)
        if name in parent.children:
            raise FsError(f"already exists: {path!r}")
        node = Inode(InodeType.FILE, name, policy=policy, owner=owner,
                     created_at=now, modified_at=now, ino=next(self._ino))
        parent.children[name] = node
        return node

    def unlink(self, path: str) -> Inode:
        """Remove a file or empty directory; returns the removed inode."""
        parent, name = self.parent_of(path)
        node = parent.children.get(name)
        if node is None:
            raise FsError(f"no such path: {path!r}")
        if node.is_dir and node.children:
            raise FsError(f"directory not empty: {path!r}")
        del parent.children[name]
        return node

    def walk_files(self, path: str = "/") -> list[tuple[str, Inode]]:
        """Every regular file under ``path`` as (full_path, inode)."""
        out: list[tuple[str, Inode]] = []

        def recurse(prefix: str, node: Inode) -> None:
            for name, child in sorted(node.children.items()):
                full = f"{prefix.rstrip('/')}/{name}"
                if child.is_dir:
                    recurse(full, child)
                else:
                    out.append((full, child))

        recurse(path, self.lookup(path))
        return out
