"""Corruption-resolution policies (§2.1 ⑧).

When verification fails, the kernel controller "resolves corruption based on
predefined policies, such as rolling back to the state before the affected
inode was acquired or marking the inode as inaccessible".  Both appear here;
rollback is the default (and is what makes the §3.1 attack harmless: dir1
rolls back with dir3 intact).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.kernel.shadow import Snapshot


class ResolutionPolicy(ABC):
    """Strategy applied by the controller when an inode fails verification."""

    name = "abstract"

    @abstractmethod
    def resolve(self, controller, ino: int, snapshot: Snapshot, reason: str) -> None:
        """Mutate kernel/device state so the corruption cannot propagate."""


class RollbackPolicy(ResolutionPolicy):
    """Restore the inode's core state to its last verified snapshot."""

    name = "rollback"

    def resolve(self, controller, ino: int, snapshot: Snapshot, reason: str) -> None:
        if snapshot is None:
            # A pending inode has no prior verified state: "before it was
            # acquired" it did not exist, so rollback wipes its record.
            controller.core.free_inode(ino)
            controller.device.sfence()
            controller.stats.rollbacks += 1
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
