"""In-memory (DRAM, auxiliary) inode state of a LibFS.

A :class:`MemInode` combines:

* the mapping handle through which the inode's core state is accessed;
* cached shadow fields (size/type/mode/...) — the §4.3 patch makes read
  operations (stat, path lookup, readdir) serve from these instead of the
  PM mapping, so a released inode can still be read without faulting;
* for directories: the hash-table index, the per-tail log cursors and
  locks, and the index-tail lock (§2.2's three lock types);
* for regular files: the page list and the readers-writer lock.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.concurrency.rcu import RCU
from repro.concurrency.rwlock import RWLock
from repro.concurrency.seqlock import SeqCount
from repro.concurrency.spinlock import SpinLock
from repro.core.config import ArckConfig
from repro.core.corestate import CoreState, TailCursor
from repro.libfs.hashtable import DirHashTable, NodeFreelist
from repro.pm.layout import ITYPE_DIR, NTAILS, InodeRecord
from repro.pm.mapping import Mapping


class MemInode:
    """One acquired (or retained-after-release) inode."""

    def __init__(self, ino: int, record: InodeRecord, config: ArckConfig,
                 rcu: RCU, freelist: NodeFreelist):
        self.ino = ino
        self.config = config
        self.record = record  # DRAM copy of the core inode record
        self.mapping: Optional[Mapping] = None
        #: the core-state helpers bound to ``mapping``, set with it: an
        #: operation reaches the core state through it, building nothing.
        self.cs: Optional[CoreState] = None
        self.writable = False
        #: parent inode as last observed by path resolution (aux knowledge,
        #: used to order release_all parents-before-children, Rule (1)).
        self.parent_ino: Optional[int] = None
        #: position in the owning LibFS's inode table (stamped on entry;
        #: breaks depth ties in release_all).
        self.order = 0
        #: components under which the owning LibFS last remembered a walk
        #: ending at this directory — the key to drop when it goes.
        self.walk: Optional[Tuple[str, ...]] = None
        #: serialises attach/detach transitions for this inode.
        self.attach_lock = threading.RLock()
        #: the kernel's version of the inode when the auxiliary state below
        #: was last (re)built from core state — or, for the releaser, as of
        #: its own release.  None: never built.  Detached, the state may
        #: answer reads only while this is still the kernel's number.
        self.aux_version: Optional[int] = None
        #: the mapping came from the kernel's published read-only table, not
        #: from an acquisition: nothing is owned, the kernel may revoke it
        #: at any time, and releasing it is local.
        self.borrowed = False

        # Cached shadow fields (§4.3): readers use these, never the mapping.
        self.gen = record.gen
        self.itype = record.itype
        self.mode = record.mode
        self.uid = record.uid
        self.size = record.size
        self.nlink = record.nlink
        #: a plain attribute, so asking costs no call: the type is fixed for
        #: the MemInode's life (a slot that holds another type or
        #: generation gets a new MemInode, never a rebuilt one).
        self.is_dir = record.itype == ITYPE_DIR

        if self.is_dir:
            self.dir = DirHashTable(config, rcu, freelist, tag=f"ino{ino}")
            self.tail_locks = [
                SpinLock(f"ino{ino}.tail{i}") for i in range(NTAILS)
            ]
            self.index_lock = SpinLock(f"ino{ino}.index")
            self.cursors: List[TailCursor] = [
                TailCursor(head_page=h) for h in record.tails
            ]
            self.rwlock = None
            self.pages: List[int] = []
        else:
            self.dir = None
            self.tail_locks = []
            self.index_lock = SpinLock(f"ino{ino}.index")
            self.cursors = []
            self.rwlock = RWLock(f"ino{ino}.rw")
            #: DRAM page index (auxiliary); rebuilt from the PM page index.
            self.pages = []
            #: bumped (under the write lock) by every pwrite/truncate and
            #: around release/unmap; a patched LibFS's preads validate
            #: against it instead of taking ``rwlock``'s read side.
            self.seq = SeqCount(f"ino{ino}.seq")

    @property
    def attached(self) -> bool:
        return self.mapping is not None and self.mapping.valid

    def pick_tail(self) -> int:
        """Spread appends across the record's log tails by thread (the
        multi-tailed log of §2.2)."""
        return threading.get_ident() % NTAILS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else "file"
        state = "attached" if self.attached else "detached"
        return f"<MemInode {self.ino} {kind} {state}>"
