"""What the kernel publishes to applications: the per-inode version table
and shared read-only mappings (the zero-crossing read path).

KucoFS-style, one device: a version the trusted side moves and the reader
compares.  The controller keeps **one monotonic version per inode**,
advanced when a writable acquisition begins, when the kernel rolls the core
state back and when the inode is deleted (``KernelController.
_open_for_write`` / ``_verify_or_resolve`` / ``_drop_shadow``); this table
only *reads* it.
A LibFS stamps the auxiliary state it builds with the version its mapping
came with, and :meth:`valid` — a load from a shared read-only page, **no
kernel crossing** — is the one question "is what I kept still the core
state's image?" is answered by, for directories and files, retained or
cache-attached alike.

On top of that, when the kernel finishes a **verified** release of a
regular file it publishes the inode: any registered application may then
map it for read straight from here (a LibFS with the §4.3 patch does; an
unpatched one acquires).  The invalidation contract keeps the trust story
intact:

* only *verified* state is ever published — a trust-group release
  (unverified, §5.4) does not publish, and a commit does not either (the
  owner may keep writing through its retained mapping);
* an entry carries the owner and mode the kernel verified, and
  :meth:`attach` runs the permission check ``acquire`` runs for a read —
  against the uid the application *registered* with, not one it names:
  borrowing skips the crossing, never the check (the bits can only change
  under a write acquisition, which retracts the entry first);
* any write acquisition unpublishes the inode *before* the writer gets
  the mapping, and unmaps every handed-out cached mapping (the TLB-
  shootdown analogue) — a reader mid-access faults with
  ``SimulatedBusError``, revalidates and re-attaches;
* deletion (shadow drop) invalidates the same way.

A stale version never silently serves: readers call :meth:`valid` before
each operation and fall back to a real (crossing, verifying) acquisition.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.permissions import READ, check_access
from repro.pm.device import PMDevice
from repro.pm.mapping import Mapping


@dataclass
class ReadCacheStats:
    publishes: int = 0
    invalidations: int = 0
    hits: int = 0
    misses: int = 0
    #: checks of a kept image (retained, or a borrowed mapping's) against
    #: the kernel's version — one per read that is not through ownership.
    validations: int = 0


class ReadMappingCache:
    """The kernel's published inode versions plus handed-out read maps."""

    def __init__(self, device: PMDevice, versions: Sequence[int],
                 uid_of: Callable[[str], int], tag: str = "readcache"):
        self.device = device
        self.tag = tag
        self._lock = threading.Lock()
        #: the controller's per-inode version table (read here, never written).
        self._versions = versions
        #: the controller's answer to "which uid did this app register as?"
        self._uid_of = uid_of
        #: inodes attachable for read straight from this table, each with
        #: the ``(mode, uid)`` the kernel verified it at.
        self._published: Dict[int, Tuple[int, int]] = {}
        #: cached mappings handed out per inode (revoked on invalidate).
        self._handouts: Dict[int, List[Mapping]] = {}
        self.stats = ReadCacheStats()

    # -- kernel side ----------------------------------------------------- #

    def publish(self, ino: int, mode: int, uid: int) -> None:
        """Make ``ino`` attachable for read, at the version it has now, by
        whoever ``mode`` lets read a file of ``uid``'s."""
        with self._lock:
            self._published[ino] = (mode, uid)
            self.stats.publishes += 1

    def invalidate(self, ino: int) -> None:
        """Retract ``ino`` and revoke every cached mapping of it."""
        with self._lock:
            published = self._published.pop(ino, None) is not None
            handouts = self._handouts.pop(ino, [])
            if published:
                self.stats.invalidations += 1
        for mapping in handouts:
            if mapping.valid:
                mapping.unmap()

    # -- application side ------------------------------------------------- #

    def attach(self, app_id: str, ino: int) -> Optional[Tuple[Mapping, int]]:
        """A read-only mapping of a published inode and the version it
        shows, or None on a miss; :class:`PermissionDenied` where
        ``acquire`` would refuse the same application a read.

        Deliberately *no* ``obs.kernel_crossing``: the table is modeled as
        a shared read-only page (vDSO-like), so a hit never enters the
        kernel.
        """
        accessor = self._uid_of(app_id)
        with self._lock:
            entry = self._published.get(ino)
            if entry is None:
                self.stats.misses += 1
                return None
            check_access(*entry, accessor, READ, f"inode {ino}")
            mapping = Mapping(self.device, ino, tag=f"{app_id}/ro")
            self._handouts.setdefault(ino, []).append(mapping)
            self.stats.hits += 1
            return mapping, self._versions[ino]

    def valid(self, ino: int, version: Optional[int]) -> bool:
        """Is ``version`` still the kernel's version of ``ino``?  One load
        from the published page: no crossing (the lock is the counter's)."""
        with self._lock:
            self.stats.validations += 1
        return self._versions[ino] == version

    def detach(self, ino: int, mapping: Mapping) -> None:
        """Return a cached mapping (local release — no kernel involvement)."""
        with self._lock:
            handouts = self._handouts.get(ino)
            if handouts is not None:
                try:
                    handouts.remove(mapping)
                except ValueError:
                    pass
                if not handouts:
                    del self._handouts[ino]
        if mapping.valid:
            mapping.unmap()

    def published(self, ino: int) -> Optional[int]:
        """The version ``ino`` is attachable at, or None when it is not."""
        with self._lock:
            return self._versions[ino] if ino in self._published else None
