"""Corruption-resolution policies (§2.1 ⑧).

When verification fails, the kernel controller "resolves corruption based on
predefined policies, such as rolling back to the state before the affected
inode was acquired or marking the inode as inaccessible".  Both appear here;
rollback is the default (and is what makes the §3.1 attack harmless: dir1
rolls back with dir3 intact).  A rollback never stores into a page another
inode holds now: when one of the snapshot's pages is another file's, the
inode is marked inaccessible instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Set

from repro.errors import ChainCorrupt
from repro.kernel.shadow import Snapshot


class ResolutionPolicy(ABC):
    """Strategy applied by the controller when an inode fails verification."""

    name = "abstract"

    @abstractmethod
    def resolve(self, controller, ino: int, snapshot: Snapshot, reason: str) -> None:
        """Mutate kernel/device state so the corruption cannot propagate."""


def overwritten(controller, ino: int, snapshot: Snapshot) -> Set[int]:
    """The snapshot's pages another inode holds now with other bytes than
    the snapshot kept: storing the snapshot would write over that file.

    ``page_owner`` answers for verified inodes.  A page ``ino`` freed since
    its snapshot and the allocator has handed out again may also sit in an
    inode acquired now and not verified since, which only that inode's core
    state shows.  A page another inode held when the snapshot was taken
    (an image that already mapped it twice) and that nobody wrote since
    is rewritten byte for byte, as before."""
    owner, alloc = controller.page_owner, controller.alloc
    held = {page_no for page_no in snapshot.pages
            if owner.get(page_no, ino) != ino}
    reissued = {page_no for page_no in snapshot.pages
                if page_no not in held and alloc.is_handed_out(page_no)}
    if reissued:
        core = controller.core
        for other in list(controller.acquisitions):
            if other == ino:
                continue
            rec = core.read_inode(other)
            if not rec.valid:
                continue
            try:
                held |= reissued.intersection(core.owned_pages(rec))
            except ChainCorrupt:
                continue  # its own verification will refuse it
    dev, geom = controller.device, controller.geom
    return {page_no for page_no in held
            if dev.load(geom.page_off(page_no), len(snapshot.pages[page_no]))
            != snapshot.pages[page_no]}


class RollbackPolicy(ResolutionPolicy):
    """Restore the inode's core state to its last verified snapshot, unless
    another inode holds one of its pages now: then mark it inaccessible."""

    name = "rollback"

    def resolve(self, controller, ino: int, snapshot: Snapshot, reason: str) -> None:
        if snapshot is None:
            # A pending inode has no prior verified state: "before it was
            # acquired" it did not exist, so rollback wipes its record.
            controller.core.free_inode(ino)
            controller.device.sfence()
            controller.stats.rollbacks += 1
            return
        taken = overwritten(controller, ino, snapshot)
        if taken:
            # A page went to another file after this inode freed it:
            # storing the snapshot overwrites that file, and leaving the
            # page out maps it twice.  The rollback cannot complete; the
            # page is the holder's, whose verification credits it.
            for page_no in taken:
                if controller.page_owner.get(page_no) == ino:
                    controller.clear_page_owner(page_no)
            MarkInaccessiblePolicy().resolve(controller, ino, snapshot, reason)
            return
        dev = controller.device
        geom = controller.geom
        dev.store(geom.inode_off(ino), snapshot.record)
        dev.persist(geom.inode_off(ino), len(snapshot.record))
        for page_no, content in snapshot.pages.items():
            off = geom.page_off(page_no)
            dev.store(off, content)
            dev.clwb(off, len(content))
            # Freed pages must be live again, and out of any pool since.
            if not controller.alloc.is_handed_out(page_no):
                controller.alloc._set_bit(page_no)  # kernel-privileged
            controller.set_page_owner(page_no, ino)
        dev.sfence()
        controller.stats.rollbacks += 1
        controller.stats.rollback_bytes += snapshot.nbytes


class MarkInaccessiblePolicy(ResolutionPolicy):
    """Fence the inode off: no application may acquire it again."""

    name = "mark-inaccessible"

    def resolve(self, controller, ino: int, snapshot: Snapshot, reason: str) -> None:
        sh = controller.shadow.get(ino)
        if sh is not None:
            sh.inaccessible = True
        controller.stats.marked_inaccessible += 1
