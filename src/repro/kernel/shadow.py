"""Kernel-side per-inode records: shadow inodes, pending inodes, snapshots.

The shadow inode table is the kernel's *verified* view of the file system —
what the last successful verification established.  The ArckFS+ §4.1 patch
adds the ``parent`` pointer, which is what lets the verifier distinguish a
child that was *renamed away* (its parent pointer was re-targeted when the
new parent committed) from one that was *deleted* (parent pointer still
points at the inode under verification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.pm.layout import ITYPE_DIR


@dataclass
class ShadowInode:
    """The kernel's verified state of one inode."""

    ino: int
    gen: int
    itype: int
    mode: int
    uid: int
    #: Verified parent directory (None only for the root).  In the unpatched
    #: ArckFS the verifier does not *consult* this (the §4.1 bug); the kernel
    #: still tracks lineage for bookkeeping.
    parent: Optional[int]
    #: Name under ``parent`` (diagnostics and audit).
    name: bytes = b""
    #: For directories: verified children, name -> ino.
    children: Dict[bytes, int] = field(default_factory=dict)
    #: Verified size (files).
    size: int = 0
    #: Resolution policy marked this inode unusable.
    inaccessible: bool = False
    #: Set when the child's record was found freed during its own
    #: verification; the deletion is confirmed when the parent verifies.
    deleted_pending: bool = False
    #: Trust-group deferral: the group whose member last released this inode
    #: without verification (None = fully verified).
    trusted_dirty_group: Optional[str] = None

    @property
    def is_dir(self) -> bool:
        return self.itype == ITYPE_DIR

    @property
    def nonempty_dir(self) -> bool:
        return self.is_dir and bool(self.children)


@dataclass
class PendingInode:
    """An inode number handed to a LibFS but not yet linked into the tree.

    It becomes a :class:`ShadowInode` when the parent directory's
    verification observes its dentry (LibFS Rule (1): the child itself
    cannot pass verification earlier, since from the kernel's perspective
    it is disconnected from the root — invariant I3).
    """

    ino: int
    gen: int
    owner: str


@dataclass
class Snapshot:
    """Rollback point: the inode's full core state at its last verification.

    Restoring it writes back the inode record and every page the inode
    owned, and re-marks those pages allocated — §2.1 ⑧ "rolling back to the
    state before the affected inode was acquired".
    """

    ino: int
    record: bytes
    pages: Dict[int, bytes] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return len(self.record) + sum(len(p) for p in self.pages.values())


@dataclass
class Acquisition:
    """A live ownership grant of one inode to one application."""

    ino: int
    app_id: str
    mapping: object  # repro.pm.Mapping
    snapshot: Optional[Snapshot]
    writable: bool = True
    #: the inode's version when this grant was made: auxiliary state built
    #: at it is the image of what the mapping showed then.
    version: int = 0
