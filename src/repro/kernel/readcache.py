"""Cross-app shared read-only mapping table (the zero-crossing read path).

KucoFS-style: when the kernel finishes a **verified**
release of a regular file, it publishes the inode into a shared read-only
table with a monotonically increasing version.  Any registered application
may then attach the file for read straight from the table — a version
load and a map construction, with **no kernel crossing** — and keep
serving reads as long as :meth:`valid` holds.

The invalidation contract keeps the trust story intact:

* only *verified* state is ever published — a trust-group release
  (unverified, §5.4) does not publish, and a commit does not either (the
  owner may keep writing through its retained mapping);
* any write acquisition invalidates the entry *before* the writer gets
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
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.pm.device import PMDevice
from repro.pm.mapping import Mapping


@dataclass
class ReadCacheStats:
    publishes: int = 0
    invalidations: int = 0
    hits: int = 0
    misses: int = 0
    #: per-operation revalidations of an already-attached cached mapping.
    validations: int = 0


class ReadMappingCache:
    """The kernel's published {ino: version} table plus handed-out maps."""

    def __init__(self, device: PMDevice, tag: str = "readcache"):
        self.device = device
        self.tag = tag
        self._lock = threading.Lock()
        #: published inodes: ino -> current version.
        self._versions: Dict[int, int] = {}
        #: cached mappings handed out per inode (revoked on invalidate).
        self._handouts: Dict[int, List[Mapping]] = {}
        self._next_version = 1
        self.stats = ReadCacheStats()

    # -- kernel side ----------------------------------------------------- #

    def publish(self, ino: int) -> int:
        """Make ``ino`` attachable for read; returns the new version."""
        with self._lock:
            version = self._next_version
            self._next_version += 1
            self._versions[ino] = version
            self.stats.publishes += 1
        obs.count("readcache.publishes")
        return version

    def invalidate(self, ino: int) -> None:
        """Retract ``ino`` and revoke every cached mapping of it."""
        with self._lock:
            published = self._versions.pop(ino, None)
            handouts = self._handouts.pop(ino, [])
            if published is not None:
                self.stats.invalidations += 1
        for mapping in handouts:
            if mapping.valid:
                mapping.unmap()
        if published is not None:
            obs.count("readcache.invalidations")

    # -- application side ------------------------------------------------- #

    def attach(self, app_id: str, ino: int) -> Optional[Tuple[Mapping, int]]:
        """A read-only mapping of a published inode, or None on a miss.

        Deliberately *no* ``obs.kernel_crossing``: the table is modeled as
        a shared read-only page (vDSO-like), so a hit never enters the
        kernel.
        """
        with self._lock:
            version = self._versions.get(ino)
            if version is None:
                self.stats.misses += 1
                miss = True
            else:
                mapping = Mapping(self.device, ino, tag=f"{app_id}/ro")
                self._handouts.setdefault(ino, []).append(mapping)
                self.stats.hits += 1
                miss = False
        if miss:
            obs.count("readcache.misses")
            return None
        obs.count("readcache.hits")
        return mapping, version

    def valid(self, ino: int, version: int) -> bool:
        """Is ``version`` still the published version of ``ino``?"""
        with self._lock:
            ok = self._versions.get(ino) == version
            self.stats.validations += 1
        return ok

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
        with self._lock:
            return self._versions.get(ino)
