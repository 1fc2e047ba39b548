"""The per-directory DRAM hash table (auxiliary state).

Each directory's LibFS index is a fixed-size bucket array of singly linked
nodes; each bucket has a spinlock (paper footnote 4: the artifact uses
spinlocks here, not readers-writer locks) and is born when a name first
hashes to it — most directories use a handful of their slots.  Three of
the paper's bugs live in and around this structure:

* §4.4 — in ArckFS the bucket lock covers only the DRAM insert, not the
  corresponding PM append, so another thread can observe an aux entry whose
  core data does not exist yet (``node.loc is None``) and fault.  The
  ArckFS+ patch extends the bucket-lock critical section over the PM update
  (the *caller* arranges this; the table just exposes its locks).
* §4.5 — ArckFS readers traverse buckets with **no** lock, assuming nodes
  are never freed.  They are: removal pushes nodes onto a freelist that
  poisons them (our stand-in for free()+realloc), and a concurrent reader
  dereferences a poisoned node → :class:`SimulatedSegfault`.  The ArckFS+
  patch wraps readers in RCU read-side critical sections and defers the
  free to a grace period.
* §4.3 — voluntary inode release must exclude concurrent operations; the
  ArckFS+ patch takes *all* bucket locks (:meth:`DirHashTable.lock_all`,
  which also holds off the birth of new ones) and retains the table
  (rather than freeing it) after release.

Readers have the paper's two modes and no third.  What an RCU reader relies
on is that every chain mutation is **one store** — an insert publishes a
fully built node at the head, a remove splices one ``next``/``head``
pointer, :meth:`DirHashTable.rebuild` swaps a whole new chain in — and that
an unlinked node is freed only after a grace period: a walk sees the chain
from before or after each store, never a half-emptied one, and whatever it
still holds stays dereferenceable.  With no reader inside that period is
over at once, so a node is read only inside a section: :meth:`entry` copies
out there, and a caller of :meth:`items` holds a section of its own.

A name is hashed once per operation: a writer takes :meth:`bucket_of`'s
``Bucket``, locks it, and hands that same bucket to :meth:`lookup_locked`,
:meth:`insert_locked` and :meth:`remove_locked`; its ``index`` orders two
buckets' locks.  With nothing armed and observability off, a failpoint site
costs one inline test.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import nullcontext
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.concurrency.rcu import RCU
from repro.concurrency.spinlock import SpinLock
from repro.core.config import ArckConfig
from repro.core.corestate import DentryLoc
from repro.errors import SimulatedSegfault

#: Hash buckets per directory.
NBUCKETS = 64

_COUNT = attrgetter("count")


class Node:
    """One directory entry in the DRAM index."""

    __slots__ = ("name", "ino", "gen", "itype", "seq", "loc", "next", "poisoned")

    def __init__(self, name: bytes, ino: int, gen: int, itype: int, seq: int,
                 loc: Optional[DentryLoc]):
        self.name = name
        self.ino = ino
        self.gen = gen
        self.itype = itype
        self.seq = seq
        #: PM location of the backing dentry; None between the aux insert
        #: and the core append (the §4.4 window).
        self.loc = loc
        self.next: Optional[Node] = None
        self.poisoned = False

    def check(self) -> None:
        """Fault on dereference of freed memory (the §4.5 segfault); a
        walker calls it only once its inline ``poisoned`` test says so."""
        if self.poisoned:
            raise SimulatedSegfault(
                f"dereference of freed directory entry (was {self.name!r})"
            )


class NodeFreelist:
    """Models the artifact allocator: freed nodes are poisoned and reused."""

    def __init__(self) -> None:
        self._free: List[Node] = []
        self._lock = threading.Lock()
        self.frees = 0
        self.reuses = 0

    def free(self, node: Node) -> None:
        node.poisoned = True
        node.next = None
        with self._lock:
            self._free.append(node)
            self.frees += 1

    def alloc(self, name: bytes, ino: int, gen: int, itype: int, seq: int,
              loc: Optional[DentryLoc]) -> Node:
        with self._lock:
            node = self._free.pop() if self._free else None
            if node is not None:
                self.reuses += 1
        if node is None:
            return Node(name, ino, gen, itype, seq, loc)
        # Reuse overwrites the old contents — exactly why a lock-free reader
        # holding a stale pointer is unsafe.
        node.name = name
        node.ino = ino
        node.gen = gen
        node.itype = itype
        node.seq = seq
        node.loc = loc
        node.next = None
        node.poisoned = False
        return node


class Bucket:
    __slots__ = ("index", "lock", "head", "count")

    def __init__(self, index: int, name: str):
        #: the slot names hash to (:meth:`DirHashTable.bucket_index`); with
        #: the directory's inode, the order two buckets are locked in.
        self.index = index
        self.lock = SpinLock(name)
        #: the chain; readers take no lock, so writers change it (and any
        #: ``next`` on it) with one store of an already-built value.
        self.head: Optional[Node] = None
        #: live entries in this chain, mutated only under ``lock`` — the
        #: per-bucket shard of the table's entry count.
        self.count = 0


class DirHashTable:
    """Auxiliary directory index: fixed buckets, per-bucket spinlocks."""

    def __init__(self, config: ArckConfig, rcu: RCU, freelist: NodeFreelist,
                 tag: str = "dir"):
        self.config = config
        self.rcu = rcu
        self.freelist = freelist
        self.tag = tag
        #: bucket index -> Bucket, for the indices some name has hashed to.
        self.buckets: Dict[int, Bucket] = {}
        #: serialises bucket births; :meth:`lock_all` holds it until
        #: :meth:`unlock_all`, so "every bucket locked" stays true of
        #: buckets that did not exist when it ran.
        self._birth_lock = threading.Lock()

    @property
    def count(self) -> int:
        """Live entries: the per-bucket counts folded on read.

        Each shard is mutated only under its own bucket lock.  The old
        shared ``self.count`` int was mutated under *different* bucket
        locks, so concurrent inserts into different buckets raced and
        lost updates.
        """
        return sum(map(_COUNT, tuple(self.buckets.values())))

    # ------------------------------------------------------------------ #

    def bucket_index(self, name: bytes) -> int:
        """The slot ``name`` hashes to; the three lookups below compute it
        inline, with no frame of their own.

        crc32 rather than hash(): deterministic across processes, so
        collision-dependent tests and benchmarks are reproducible."""
        return zlib.crc32(name) % NBUCKETS

    def bucket_of(self, name: bytes) -> Bucket:
        """The bucket ``name`` hashes to, born here if this is the first
        name that does (writer paths; readers never create one).  The one
        hash of a writer's operation: what it does to the name under the
        lock takes this bucket."""
        index = zlib.crc32(name) % NBUCKETS  # bucket_index
        bucket = self.buckets.get(index)
        if bucket is None:
            with self._birth_lock:
                bucket = self.buckets.setdefault(
                    index, Bucket(index, f"{self.tag}.bucket{index}"))
        return bucket

    def _free(self, node: Node) -> None:
        """Free an unlinked node: after a grace period under the §4.5
        patch, at once (poison + reuse — the use-after-free) without it."""
        if self.config.rcu_buckets:
            self.rcu.call_rcu(partial(self.freelist.free, node))
        else:
            self.freelist.free(node)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def _walk(self, bucket: Bucket, name: bytes) -> Optional[Node]:
        hooks = failpoints.hooks
        node = bucket.head
        while node is not None:
            if hooks or obs.enabled:
                failpoints.hit("dir.bucket_traverse", node)
            if node.poisoned:
                node.check()
            if node.name == name:
                return node
            node = node.next
        return None

    #: ``lookup_locked(bucket, name)``: find an entry in ``bucket``, the one
    #: ``name`` hashes to, whose lock the caller holds (writer paths).
    lookup_locked = _walk

    def lookup(self, name: bytes) -> Optional[Node]:
        """Find an entry.  ArckFS: lock-free (bug §4.5).  ArckFS+: RCU
        read section."""
        bucket = self.buckets.get(zlib.crc32(name) % NBUCKETS)  # bucket_index
        if bucket is None:
            return None  # no name has ever hashed here
        if self.config.rcu_buckets:
            with self.rcu.read():
                return self._walk(bucket, name)
        return self._walk(bucket, name)

    def entry(self, name: bytes) -> Optional[Tuple[int, int]]:
        """``(ino, itype)`` of an entry, read inside the read section that
        found it (ArckFS+): once no reader is inside, an unlinked node is
        freed, and may be reused, at once."""
        bucket = self.buckets.get(zlib.crc32(name) % NBUCKETS)  # bucket_index
        if bucket is None:
            return None
        if self.config.rcu_buckets:
            with self.rcu.read():
                node = self._walk(bucket, name)
                return None if node is None else (node.ino, node.itype)
        node = self._walk(bucket, name)
        return None if node is None else (node.ino, node.itype)

    def items(self) -> List[Node]:
        """Snapshot every entry (readdir) as a list.

        The snapshot is built *inside* the read-side critical section and
        returned whole.  (An earlier version returned a generator that
        held the RCU read lock open across consumer code, so an abandoned
        ``readdir`` iterator pinned grace periods indefinitely.)
        """
        out: List[Node] = []
        hooks = failpoints.hooks
        with self.rcu.read() if self.config.rcu_buckets else nullcontext():
            for bucket in tuple(self.buckets.values()):
                node = bucket.head
                while node is not None:
                    if hooks or obs.enabled:
                        failpoints.hit("dir.bucket_traverse", node)
                    if node.poisoned:
                        node.check()
                    out.append(node)
                    node = node.next
        return out

    # ------------------------------------------------------------------ #
    # Write side (caller holds the lock of the bucket the name hashes to,
    # and passes that bucket)
    # ------------------------------------------------------------------ #

    def insert_locked(self, bucket: Bucket, node: Node) -> None:
        if bucket.lock.owner != threading.get_ident():
            raise RuntimeError("insert without bucket lock")
        node.next = bucket.head
        bucket.head = node  # the one store that publishes it
        bucket.count += 1

    def remove_locked(self, bucket: Bucket, name: bytes) -> Optional[Node]:
        """Unlink the entry from its chain and *free* it.

        Under ArckFS the free is immediate (poison + freelist) — the §4.5
        use-after-free.  Under ArckFS+ the free is deferred via RCU.
        """
        if bucket.lock.owner != threading.get_ident():
            raise RuntimeError("remove without bucket lock")
        prev: Optional[Node] = None
        node = bucket.head
        while node is not None:
            if node.name == name:
                if prev is None:
                    bucket.head = node.next
                else:
                    prev.next = node.next
                bucket.count -= 1
                self._free(node)
                return node
            prev = node
            node = node.next
        return None

    # ------------------------------------------------------------------ #
    # Whole-table operations
    # ------------------------------------------------------------------ #

    def lock_all(self) -> None:
        """Take every bucket lock in index order (§4.3 release path), and
        keep new buckets from being born until :meth:`unlock_all`."""
        self._birth_lock.acquire()
        for index in sorted(self.buckets):
            self.buckets[index].lock.acquire()

    def unlock_all(self) -> None:
        for index in sorted(self.buckets, reverse=True):  # none born since
            self.buckets[index].lock.release()
        self._birth_lock.release()

    def clear_and_free(self) -> None:
        """Free every node immediately (ArckFS release path, §4.3 bug:
        auxiliary state is freed while others may still be using it)."""
        for bucket in tuple(self.buckets.values()):
            node = bucket.head
            bucket.head = None
            bucket.count = 0
            while node is not None:
                nxt = node.next
                self.freelist.free(node)
                node = nxt

    def rebuild(self, entries) -> None:
        """Replace contents from (name -> Dentry-like) after re-acquire.

        Each bucket's new chain is built off to the side and swapped in
        with one store of ``head``, so a concurrent reader walks the old
        chain or the new one and never an empty between-state (no spurious
        miss); under the §4.5 patch the old nodes are freed only after a
        grace period, so a reader still on the old chain finishes its walk.
        """
        by_bucket: Dict[Bucket, List[Node]] = {
            bucket: [] for bucket in tuple(self.buckets.values())}
        for name, (ino, gen, itype, seq, loc) in entries.items():
            node = self.freelist.alloc(name, ino, gen, itype, seq, loc)
            by_bucket.setdefault(self.bucket_of(name), []).append(node)
        for bucket, new_nodes in by_bucket.items():
            head: Optional[Node] = None
            for node in new_nodes:
                node.next = head
                head = node
            old = bucket.head
            bucket.head = head  # the one store readers rely on
            bucket.count = len(new_nodes)
            while old is not None:
                nxt = old.next
                self._free(old)
                old = nxt
