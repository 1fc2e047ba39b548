"""The ArckFS library file system (LibFS).

One instance per application.  The public API is POSIX-like and path-based:
``creat``, ``open``, ``close``, ``pread``/``pwrite``/``read``/``write``,
``unlink``, ``mkdir``, ``rmdir``, ``readdir``, ``stat``, ``rename``,
``truncate``, ``fsync`` (returns immediately; all persistence is
synchronous, §2.2), plus the Trio ownership verbs ``commit_path``,
``release_path`` and ``release_all``.

Every paper bug site is compiled in, guarded by the
:class:`~repro.core.config.ArckConfig` flags and instrumented with
failpoints (see :mod:`repro.concurrency.failpoints`):

* creation uses the commit-marker protocol with or without the §4.2 fence;
* the §4.4 window between the DRAM hash insert and the PM append exists
  unless ``extended_bucket_lock`` keeps the bucket lock across both;
* directory readers are lock-free (§4.5) unless ``rcu_buckets``;
* voluntary release frees the auxiliary state and takes no locks (§4.3)
  unless ``locked_release`` — which, making a retained image safe to read,
  is also what lets ``pread`` go optimistic and a read attach borrow the
  kernel's published mapping instead of acquiring (DESIGN §5);
* directory renames skip the global lease and the descendant check (§4.6)
  unless the corresponding flags are set, and follow the multi-inode Rules
  (2)/(3) of §3.2 only when ``rename_commit_protocol`` is set.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.obs.instrument import traced_syscall
from repro.concurrency.lease import LeaseExpired
from repro.concurrency.percpu import ShardedStats
from repro.concurrency.rcu import RCU
from repro.core.config import ArckConfig
from repro.core.corestate import CoreState, DentryLoc
from repro.core.invariants import read_shape, resolve_dentries
from repro.core.mkfs import ROOT_INO
from repro.errors import (
    BadFileDescriptor,
    Exists,
    FSError,
    InvalidArgument,
    IsADir,
    NoEntry,
    NotADir,
    NotEmpty,
    SimulatedBusError,
    SimulatedSegfault,
    TryAgain,
    WouldLoop,
)
from repro.kernel.controller import KernelController
from repro.libfs import paths
from repro.libfs.fdtable import FDTable
from repro.libfs.hashtable import NodeFreelist
from repro.libfs.inode import MemInode
from repro.pm.layout import (
    INODE_MAGIC,
    ITYPE_DIR,
    ITYPE_FILE,
    NTAILS,
    PAGE_SIZE,
    Dentry,
    InodeRecord,
    legal_name,
)

#: torn or faulted pread attempts before falling back to the read lock,
#: and again under it before the fault surfaces.
PREAD_RETRY_LIMIT = 8


@dataclass(frozen=True)
class StatResult:
    ino: int
    itype: int
    size: int
    mode: int
    uid: int
    gen: int

    @property
    def is_dir(self) -> bool:
        return self.itype == ITYPE_DIR


@dataclass
class LibFSStats:
    creates: int = 0
    opens: int = 0
    unlinks: int = 0
    mkdirs: int = 0
    rmdirs: int = 0
    renames: int = 0
    reads: int = 0
    writes: int = 0
    write_extents: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    lookups: int = 0
    readdirs: int = 0
    stats_: int = 0
    fsyncs: int = 0


class LibFS:
    """Per-application ArckFS instance over a Trio kernel controller."""

    def __init__(
        self,
        kernel: KernelController,
        app_id: str,
        uid: int = 1000,
        config: Optional[ArckConfig] = None,
        group: Optional[str] = None,
    ):
        self.kernel = kernel
        self.app_id = app_id
        self.uid = uid
        self.config = config if config is not None else kernel.config
        kernel.register_app(app_id, uid, group)
        self.geom = kernel.geom
        self.alloc = kernel.alloc
        self.rcu = RCU(f"{app_id}.rcu")
        self.freelist = NodeFreelist()
        self.fdtable = FDTable()
        #: per-thread stat shards — the syscall fast path bumps a private
        #: cell, never a shared cacheline (read via the ``stats`` property).
        self._stats = ShardedStats(LibFSStats)
        self._inodes: Dict[int, MemInode] = {}
        #: the members of ``_inodes`` that may hold a live mapping — every
        #: attached one, plus ones released or revoked since the last
        #: ``release_all`` pruned it.  Written under ``_inodes_lock`` by
        #: ``_remember`` / ``_invalidate_aux`` only.
        self._mapped: Dict[int, MemInode] = {}
        self._inode_order = itertools.count()
        self._inodes_lock = threading.RLock()
        #: remembered walks: a name's components -> the chain
        #: ``((root, version), ..., (inode, version))`` that resolved them
        #: (``_resolve``); one per member of ``_inodes``, keyed by
        #: ``MemInode.walk``.
        self._walks: Dict[Tuple[str, ...], Tuple[Tuple[MemInode, int], ...]] = {}
        #: bumped (under ``_inodes_lock``) where this LibFS moves or removes
        #: a dentry: a walk that overlapped is not remembered.
        self._walk_seq = 0

    @property
    def stats(self) -> LibFSStats:
        """Current counters, folded across thread shards."""
        return self._stats.fold()

    # ================================================================== #
    # Attach / detach machinery
    # ================================================================== #

    def _remember(self, mi: MemInode) -> None:
        """Enter a just-mapped MemInode into ``_inodes`` (lock held); for
        one already there this only indexes it as mapped again."""
        old = self._inodes.get(mi.ino)
        if old is not None and old is not mi:
            self._walks.pop(old.walk, None)  # the slot is another inode's now
        # ``order`` is the position in ``_inodes``: overwriting a key keeps
        # the dict slot, so it keeps the stamp too.
        mi.order = old.order if old is not None else next(self._inode_order)
        self._inodes[mi.ino] = mi
        self._mapped[mi.ino] = mi

    def _rebuild_aux(self, mi: MemInode, cs: CoreState, rec: InodeRecord) -> None:
        """(Re)build the DRAM auxiliary state from the core state, read once."""
        shape = read_shape(cs, mi.ino, rec)
        if not shape.parsed():
            raise shape.error()
        mi.record = rec
        mi.gen = rec.gen
        mi.itype = rec.itype
        mi.mode = rec.mode
        mi.uid = rec.uid
        mi.size = rec.size
        mi.nlink = rec.nlink
        if mi.is_dir:
            mi.cursors = [shape.cursor(tail) for tail in range(NTAILS)]
            # No path can address an illegal name.
            mi.dir.rebuild({name: (d.ino, d.gen, d.itype, d.seq, loc) for name, (d, loc)
                            in resolve_dentries(shape.records).items() if legal_name(name)})
        else:
            mi.pages = shape.data

    def _attach(self, ino: int, write: bool = False,
                parent_ino: Optional[int] = None) -> MemInode:
        """Ensure the inode is mapped (for write if asked) and its auxiliary
        state is the image of the core state the mapping shows.

        First attach, re-attach of a retained inode and read-to-write
        upgrade alike: take a mapping — a patched LibFS that only reads
        borrows it from the kernel's published table (no crossing), anything
        else acquires — and rebuild iff the version the state was built at
        is not the one the mapping came with.  An unpatched LibFS (§4.3)
        frees its auxiliary state on release and takes no lock against it,
        so nothing there may outlive an acquisition: it never borrows.
        """
        with self._inodes_lock:
            known = self._inodes.get(ino)
        # A remembered MemInode has its mapping (set before it is
        # remembered), whose flag says whether it is still attached.
        if known is not None and known.mapping.valid \
                and (known.writable or not write):
            return known
        with known.attach_lock if known is not None else nullcontext():
            if known is not None:
                if known.mapping.valid and (known.writable or not write):
                    return known
                write = write or known.writable
            borrow = not write and self.config.locked_release
            while True:
                cached = (self.kernel.readcache.attach(self.app_id, ino)
                          if borrow else None)
                mapping, version = cached or self.kernel.acquire(
                    self.app_id, ino, write=write)
                mi, cs = known, CoreState(mapping, self.geom)
                try:
                    if mi is None or mi.aux_version != version:
                        # Somebody else wrote it since (or we never saw it):
                        # what we kept is no longer the core state's image.
                        rec = cs.read_inode(ino)
                        if mi is None or (mi.gen, mi.itype) != (rec.gen, rec.itype):
                            # First sight — or the slot holds another inode
                            # now, which is not this one's to become.
                            mi = MemInode(ino, rec, self.config, self.rcu,
                                          self.freelist)
                            mi.parent_ino = parent_ino
                        self._rebuild_aux(mi, cs, rec)
                        mi.aux_version = version
                    break
                except SimulatedBusError:
                    if cached is None:
                        raise
                    # Revoked between the table and the rebuild: a writer
                    # has it — fall back to a real (crossing) acquisition.
                    self.kernel.readcache.detach(ino, mapping)
                    borrow = False
            # The helpers first: whoever sees the new mapping live finds
            # them bound to it.
            mi.cs = cs
            mi.mapping, mi.borrowed, mi.writable = mapping, cached is not None, write
            with self._inodes_lock:
                rival = self._inodes.get(ino)
                if rival is None or rival is known:
                    self._remember(mi)
                    rival = None
            if rival is not None:
                # Lost the build race: a kernel grant is shared, a borrowed
                # mapping goes back.
                if cached is not None:
                    self.kernel.readcache.detach(ino, mapping)
                rival.writable = rival.writable or write
                return rival
            if cached is not None:
                obs.count("readpath.crossings_avoided")
        return mi

    def _get_for_read(self, ino: int) -> MemInode:
        """An inode usable for read operations: owned, or kept at the
        kernel's current version.

        Under the §4.3 patch a released MemInode is retained and serves
        reads from cached state without a kernel round trip — for as long
        as nobody has written the inode since, which is one load from the
        kernel's published version table (no crossing).  A mapping borrowed
        from that table is not ownership, so it is asked the same question;
        anything else re-attaches, rebuilding from core state.
        """
        with self._inodes_lock:
            mi = self._inodes.get(ino)
        if mi is not None and (
                # owned (attached through an acquisition; the mapping's
                # flag is an attribute), or still the published version
                mi.mapping.valid and not mi.borrowed
                or self.kernel.readcache.valid(ino, mi.aux_version)):
            return mi
        return self._attach(ino, write=False)

    def _lock_bucket_attached(self, mi: MemInode, name: bytes):
        """Take the bucket lock for ``name`` with the inode attached+writable.

        Loops because (under the §4.3 patch) a concurrent release may detach
        the inode between the attach and the lock acquisition; once we hold
        the bucket lock, an ArckFS+ release (which takes all bucket locks)
        cannot unmap underneath us.  Unpatched ArckFS keeps the race — the
        §4.3 bug.
        """
        bucket = mi.dir.bucket_of(name)
        while True:
            self._attach(mi.ino, write=True)
            bucket.lock.acquire()
            if mi.attached and mi.writable:
                return bucket
            bucket.lock.release()

    # ================================================================== #
    # Path resolution
    # ================================================================== #

    def _lookup(self, dir_mi: MemInode, name: bytes) -> Optional[Tuple[int, int]]:
        self._stats.inc("lookups")
        return dir_mi.dir.entry(name)

    def _resolve(self, comps: Tuple[str, ...], write: bool = False) -> MemInode:
        """The inode ``comps`` names, attached as needed: a file for write
        at once with ``write`` (one acquisition, not a read one first)."""
        seq = self._walk_seq  # read before anything the walk relies on
        walk, entry = self._walk(comps, seq)
        if entry is None:  # remembered
            mi = walk[-1][0]
            return self._attach(mi.ino, write=True) if write and not mi.is_dir else mi
        ino, itype = entry
        if write and itype != ITYPE_DIR:
            mi = self._attach(ino, write=True)
        else:
            mi = self._get_for_read(ino)
        self._extend(seq, comps, walk, mi)
        return mi

    def _walk(self, comps: Tuple[str, ...], seq: int):
        """``(walk, None)`` when ``comps``' own remembered walk answers (the
        root always does), else ``(the walk to its parent, its dentry's
        (ino, itype))``.

        A remembered walk answers iff every member on it — the named inode
        included — is still the MemInode known for its inode, holds the
        image the walk read (same ``aux_version``: not rebuilt since) and
        that image may answer by :meth:`_get_for_read`'s rule: another
        application's write, rename or removal had to write-acquire the
        inode or the directory holding its dentry, which moved that
        version; this LibFS's own moves drop the walks where the dentry
        leaves (DESIGN §5 "When a remembered walk may answer").  A miss
        extends the longest prefix whose walk still answers, one lookup per
        name, remembering each directory's walk it makes; the leaf is left
        to the caller, who attaches it as it needs.
        """
        valid = self.kernel.readcache.valid
        depth, walk = len(comps), None
        with self._inodes_lock:
            while depth:
                walk = self._walks.get(comps[:depth])
                if walk is not None:
                    for mi, version in walk:
                        if self._inodes.get(mi.ino) is not mi \
                                or mi.aux_version != version \
                                or not (mi.mapping.valid and not mi.borrowed  # owned
                                        or valid(mi.ino, version)):
                            self._walks.pop(comps[:depth], None)
                            break
                    else:
                        break
                depth -= 1
        if depth == len(comps) and walk is not None:
            return walk, None
        if not depth:
            root = self._get_for_read(ROOT_INO)
            walk = ((root, root.aux_version),)  # read before the image is consulted
            if not comps:
                return walk, None
        while True:
            depth += 1
            cur = walk[-1][0]
            if not cur.is_dir:
                raise NotADir(paths.join(comps[:depth - 1]))
            entry = self._lookup(cur, comps[depth - 1].encode())
            if entry is None:
                raise NoEntry(paths.join(comps[:depth]))
            if depth == len(comps):
                return walk, entry
            if entry[1] != ITYPE_DIR:
                raise NotADir(paths.join(comps[:depth]))
            walk = self._extend(seq, comps[:depth], walk,
                                self._get_for_read(entry[0]))

    def _extend(self, seq: int, comps: Tuple[str, ...], walk, mi: MemInode):
        """``walk`` extended by ``mi``, which ``comps`` named; remembered
        unless ``_walk_seq`` moved since ``seq`` or ``mi`` was replaced."""
        mi.parent_ino = walk[-1][0].ino
        walk += ((mi, mi.aux_version),)
        with self._inodes_lock:
            if seq == self._walk_seq and self._inodes.get(mi.ino) is mi:
                if mi.walk is not None:
                    self._walks.pop(mi.walk, None)  # known by another name
                self._walks[comps] = walk
                mi.walk = comps
        return walk

    def _resolve_dir(self, comps: Tuple[str, ...]) -> MemInode:
        """:meth:`_resolve`, for a name that must be a directory."""
        mi = self._resolve(comps)
        if not mi.is_dir:
            raise NotADir(paths.join(comps))
        return mi

    def _resolve_parent(self, comps: Tuple[str, ...]) -> Tuple[MemInode, bytes]:
        if not comps:
            raise InvalidArgument("the root directory has no name")
        return self._resolve_dir(comps[:-1]), comps[-1].encode()

    # ================================================================== #
    # Creation
    # ================================================================== #

    def _write_new_inode_record(self, mapping, ino: int, gen: int, itype: int,
                                mode: int) -> InodeRecord:
        rec = InodeRecord(
            magic=INODE_MAGIC,
            itype=itype,
            mode=mode,
            uid=self.uid,
            gen=gen,
            size=0,
            nlink=2 if itype == ITYPE_DIR else 1,
            seq=0,
            index_root=0,
            tails=[0] * NTAILS,
        )
        # Step 1 of the commit protocol: store + clwb, NO fence — the fence
        # (or its §4.2 absence) is handled by append_dentry.
        CoreState(mapping, self.geom).write_inode_noflush(ino, rec)
        return rec

    def _append_dentry(self, parent: MemInode, name: bytes, ino: int, gen: int,
                       itype: int, seq: int) -> DentryLoc:
        """Append a committed dentry to the parent's multi-tailed log."""
        tail = parent.pick_tail()
        cursor = parent.cursors[tail]
        lock = parent.tail_locks[tail]
        with lock:
            failpoints.hit("dir.write_mid", name)
            cs = parent.cs
            rec_len = Dentry.record_len(name)
            needs_alloc = (
                cursor.head_page == 0
                or cursor.used + rec_len > PAGE_SIZE - 16  # may extend the chain
            )
            # The index-tail lock protects inode-record tail-head updates
            # and chain extension (§2.2's third lock type).
            with parent.index_lock if needs_alloc else nullcontext():
                return cs.append_dentry(
                    parent.ino, parent.record, tail, cursor, name, ino, gen,
                    itype, seq, self.alloc,
                    fence_before_marker=self.config.fence_before_marker,
                    failpoints=failpoints,
                )

    def _create_common(self, comps: Tuple[str, ...], mode: int,
                       itype: int) -> MemInode:
        parent, name = self._resolve_parent(comps)
        path = paths.join(comps)
        ino, gen = self.kernel.alloc_inode(self.app_id)
        bucket = None  # taking it can fail: the parent may be held elsewhere
        inserted = False
        extended = self.config.extended_bucket_lock
        try:
            child_mapping, version = self.kernel.acquire(self.app_id, ino, write=True)
            bucket = self._lock_bucket_attached(parent, name)
            if parent.dir.lookup_locked(name) is not None:
                raise Exists(path)
            node = self.freelist.alloc(name, ino, gen, itype, seq=1, loc=None)
            parent.dir.insert_locked(node)
            inserted = True
            if not extended:
                # §4.4 bug: the bucket lock does not cover the core append.
                bucket.lock.release()
            failpoints.hit("creat.pre_core_append", path)
            rec = self._write_new_inode_record(child_mapping, ino, gen, itype, mode)
            node.loc = self._append_dentry(parent, name, ino, gen, itype, seq=1)
        except BaseException:
            if inserted:
                if not extended:
                    bucket.lock.acquire()
                try:
                    parent.dir.remove_locked(name)
                finally:
                    bucket.lock.release()
            elif bucket is not None:
                bucket.lock.release()
            self.kernel.abort_inode(self.app_id, ino)
            raise
        else:
            if extended:
                bucket.lock.release()

        child = MemInode(ino, rec, self.config, self.rcu, self.freelist)
        child.cs = CoreState(child_mapping, self.geom)
        child.mapping = child_mapping
        child.aux_version = version  # the empty image just constructed
        child.writable = True
        child.parent_ino = parent.ino
        with self._inodes_lock:
            self._remember(child)
        return child

    def creat(self, path: str, mode: int = 0o664) -> int:
        """Create a regular file; returns a writable file descriptor."""
        return self._creat(paths.parse(path), mode)

    @traced_syscall("creat")
    def _creat(self, comps: Tuple[str, ...], mode: int) -> int:
        return self.fdtable.install(self._create_file(comps, mode),
                                    paths.join(comps)).fd

    def _create_file(self, comps: Tuple[str, ...], mode: int) -> MemInode:
        """The regular file ``comps`` names, created (and counted) and left
        attached for write: ``creat``'s body, and ``write_file``'s and a
        transaction's create, which install no descriptor."""
        mi = self._create_common(comps, mode, ITYPE_FILE)
        self._stats.inc("creates")
        return mi

    def mkdir(self, path: str, mode: int = 0o775) -> None:
        self._mkdir(paths.parse(path), mode)

    @traced_syscall("mkdir")
    def _mkdir(self, comps: Tuple[str, ...], mode: int = 0o775) -> None:
        self._create_dir(comps, mode)

    def _create_dir(self, comps: Tuple[str, ...], mode: int) -> MemInode:
        """The directory ``comps`` names, created (and counted): ``mkdir``'s
        body, and a transaction's."""
        mi = self._create_common(comps, mode, ITYPE_DIR)
        self._stats.inc("mkdirs")
        return mi

    # ================================================================== #
    # Open / close / stat / readdir
    # ================================================================== #

    @traced_syscall("open")
    def open(self, path: str, create: bool = False, mode: int = 0o664) -> int:
        comps = paths.parse(path)
        try:
            mi = self._resolve(comps)
        except NoEntry:
            if create:
                return self._creat(comps, mode)
            raise
        if mi.is_dir:
            raise IsADir(paths.join(comps))
        self._stats.inc("opens")
        return self.fdtable.install(mi, paths.join(comps)).fd

    @traced_syscall("close")
    def close(self, fd: int) -> None:
        self.fdtable.close(fd)

    @traced_syscall("stat")
    def stat(self, path: str) -> StatResult:
        comps = paths.parse(path)
        self._stats.inc("stats_")
        mi = self._resolve(comps)
        # §4.3 patch: served entirely from cached in-memory inode state.
        return StatResult(
            ino=mi.ino, itype=mi.itype, size=mi.size, mode=mi.mode,
            uid=mi.uid, gen=mi.gen,
        )

    @traced_syscall("readdir")
    def readdir(self, path: str) -> List[str]:
        mi = self._resolve_dir(paths.parse(path))
        self._stats.inc("readdirs")
        # a node unlinked outside a section may be freed and reused at once
        with self.rcu.read() if self.config.rcu_buckets else nullcontext():
            return sorted(node.name.decode() for node in mi.dir.items())

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except TryAgain:
            raise  # held by someone else is not "absent": retry, or recall
        except FSError:
            return False

    # ================================================================== #
    # Data path
    # ================================================================== #

    def _attach_open(self, mi: MemInode, write: bool) -> MemInode:
        """Attach the file a descriptor (or a walk) found and return the
        MemInode that holds it now.  That is ``mi`` — or, when ``mi`` was
        dropped (an unpatched release frees the auxiliary state) and the
        attach rebuilt the same file, the same slot, generation and type,
        the rebuilt one, to which every descriptor on ``mi`` is rebound.
        Another file in the slot (``mi``'s unlinked and the slot reused by
        another session): a descriptor names nothing; a walk is redone."""
        cur = self._attach(mi.ino, write=write)
        if cur is not mi:
            if (cur.gen, cur.itype) != (mi.gen, mi.itype):
                raise BadFileDescriptor(
                    f"inode {mi.ino} is not the file opened any more")
            self.fdtable.rebind(mi, cur)
        return cur

    @traced_syscall("pwrite")
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self._pwrite(self.fdtable.get(fd).mi, data, offset)

    def _writable_file(self, comps: Tuple[str, ...],
                       create: bool = False) -> MemInode:
        """The regular file ``comps`` names, attached for write; with
        ``create`` a missing one is created first (``write_file``, and a
        transaction's apply and replay)."""
        try:
            mi = self._resolve(comps, write=True)
        except NoEntry:
            if not create:
                raise
            return self._create_file(comps, 0o664)
        if mi.is_dir:
            raise IsADir(paths.join(comps))
        return mi

    def _pwrite(self, mi: MemInode, data: bytes, offset: int,
                sync: bool = True) -> int:
        """The one write path: ``pwrite``'s body, and a transaction's apply
        and undo, which pass ``sync=False``: a write that only overwrites
        mapped bytes is then left unfenced, for the caller to fence once
        for its whole batch.  One that maps pages or raises the size still
        fences its data before that metadata."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        data = bytes(data)
        mi.rwlock.acquire_write()
        mi.seq.write_begin()  # readers see the write in flight and retry
        try:
            cur = self._attach_open(mi, write=True)
            if cur is not mi:  # the same file, rebuilt: write it under its locks
                return self._pwrite(cur, data, offset, sync)
            cs = mi.cs
            end = offset + len(data)
            existing = len(mi.pages)
            needed = (end + PAGE_SIZE - 1) // PAGE_SIZE
            new_pages = (
                self.alloc.alloc_many(needed - existing, zero=False)
                if needed > existing else []
            )
            all_pages = mi.pages + new_pages if new_pages else mi.pages
            if new_pages:
                # Fresh pages the write fully overwrites skip the durable
                # pre-zero; hole pages and partial head/tail pages are
                # zeroed here with ntstores riding the slot fence below.
                for idx in range(existing, needed):
                    page_start = idx * PAGE_SIZE
                    if offset <= page_start and end >= page_start + PAGE_SIZE:
                        continue
                    cs.write_page_data(all_pages[idx], 0, b"\0" * PAGE_SIZE)
            page_idx, in_page = divmod(offset, PAGE_SIZE)
            if not data:
                extents = 0
            elif in_page + len(data) <= PAGE_SIZE:
                # One page, the common 4 KiB write: no run to coalesce.
                cs.write_extent_data(all_pages[page_idx], in_page, data)
                extents = 1
            else:
                # Coalesce consecutive page numbers into one extent each:
                # one non-temporal stream, one queued write-back.
                view = memoryview(data)  # extents are views: the store copies once
                last_idx = (end - 1) // PAGE_SIZE
                pos = extents = 0
                while pos < len(data):
                    run_end = page_idx
                    while run_end < last_idx and \
                            all_pages[run_end + 1] == all_pages[run_end] + 1:
                        run_end += 1
                    chunk = min(len(data) - pos,
                                (run_end + 1 - page_idx) * PAGE_SIZE - in_page)
                    cs.write_extent_data(all_pages[page_idx], in_page,
                                         view[pos:pos + chunk])
                    extents += 1
                    pos += chunk
                    page_idx, in_page = run_end + 1, 0
            if new_pages:
                # One fence for data and slots, before the size commits: a
                # crash ahead of it leaves bytes mapped past the committed
                # size, which mount unmaps (``CoreState.trim_to_size``).
                cs.append_file_pages(mi.ino, mi.record, existing, new_pages, self.alloc)
                mi.pages = all_pages
            elif sync or end > mi.size:
                mi.mapping.sfence()  # data durable before metadata commits it
            if end > mi.size:
                cs.set_file_size(mi.ino, end)
                mi.record.size = end
                mi.size = end
            cells = self._stats.cells()
            cells["writes"] += 1
            cells["write_extents"] += extents
            cells["bytes_written"] += len(data)
            return len(data)
        finally:
            mi.seq.write_end()
            mi.rwlock.release_write()

    @traced_syscall("pread")
    def pread(self, fd: int, n: int, offset: int) -> bytes:
        return self._pread(self.fdtable.get(fd).mi, n, offset)

    def _pread(self, mi: MemInode, n: int, offset: int) -> bytes:
        """The one read path: ``pread``'s body, and ``read``'s and ``read_file``'s."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        if n < 0:
            raise InvalidArgument("negative count")
        # §4.3 patch: the read is optimistic — validate ``mi.seq`` around
        # the copy, no read-modify-write on the lock's shared line — and
        # takes the read side only once PREAD_RETRY_LIMIT attempts were torn
        # (a writer storm).  A mapping can go away under either kind of
        # attempt without the rwlock (the kernel revokes a borrowed one for
        # a writer elsewhere): revalidate and re-attach, bounded so a
        # genuinely dead inode still surfaces.  Unpatched, the read side is
        # taken from the start and the fault surfaces — it IS §4.3.
        patched = self.config.locked_release
        last = 2 * PREAD_RETRY_LIMIT
        for attempt in range(last + 1):
            locked = not patched or attempt >= PREAD_RETRY_LIMIT
            if locked:
                mi.rwlock.acquire_read()
            try:
                start = None if locked else mi.seq.read_begin()
                cur = self._attach_open(mi, write=False)
                if cur is not mi:  # the same file, rebuilt: read it there
                    break
                out = mi.cs.read_file_data(mi.pages, mi.size, offset, n)
                if locked or not mi.seq.read_retry(start):
                    cells = self._stats.cells()
                    cells["reads"] += 1
                    cells["bytes_read"] += len(out)
                    return out
            except SimulatedBusError:
                if not patched or attempt == last:
                    raise
            except IndexError:
                # A pages/size pair torn by a concurrent truncate — which
                # only a read without the lock can see.
                if locked:
                    raise
            finally:
                if locked:
                    mi.rwlock.release_read()
            if not locked:  # the counter is of optimistic attempts redone
                obs.count("readpath.pread_retries")
        return self._pread(cur, n, offset)  # only the break gets here

    @traced_syscall("write")
    def write(self, fd: int, data: bytes) -> int:
        """Write at the file offset (sequential write)."""
        entry = self.fdtable.get(fd)
        return self._pwrite(entry.mi, data, entry.advance(len(data)))

    @traced_syscall("read")
    def read(self, fd: int, n: int) -> bytes:
        entry = self.fdtable.get(fd)
        out = self._pread(entry.mi, n, entry.advance(0))
        entry.advance(len(out))
        return out

    def lseek(self, fd: int, offset: int) -> None:
        entry = self.fdtable.get(fd)
        with entry._offset_lock:
            entry.offset = offset

    @traced_syscall("truncate")
    def truncate(self, path: str, size: int) -> None:
        """Set a file's length: a shrink unmaps the trailing pages, an
        extension reads as zeros."""
        if size < 0:
            raise InvalidArgument("negative size")
        self._truncate(self._writable_file(paths.parse(path)), size)

    def _truncate(self, mi: MemInode, size: int) -> None:
        """The one truncate path: ``truncate``'s body, and a transaction's
        apply and undo."""
        mi.rwlock.acquire_write()
        mi.seq.write_begin()
        try:
            cur = self._attach_open(mi, write=True)
            if cur is not mi:  # as in ``_pwrite``
                return self._truncate(cur, size)
            cs = mi.cs
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            if keep > len(mi.pages):
                # Back the new length with zeroed pages *before* the size
                # commits: ``size <= mapped capacity`` is what the verifier,
                # fsck and mount all hold a file to.
                new_pages = self.alloc.alloc_many(keep - len(mi.pages), zero=True)
                cs.append_file_pages(mi.ino, mi.record, len(mi.pages), new_pages, self.alloc)
                mi.pages = mi.pages + new_pages
            tail = size % PAGE_SIZE if size < mi.size else 0
            cs.set_file_size(mi.ino, size)
            mi.size = size
            mi.record.size = size
            if tail:
                # A cut inside a page: the kept last page still holds the
                # cut-off bytes, and a later extension or write past EOF
                # must read them as zeros.
                cs.write_page_data(mi.pages[keep - 1], tail, b"\0" * (PAGE_SIZE - tail))
                mi.mapping.sfence()
            if keep < len(mi.pages):
                self._drop_trailing_pages(mi, cs, keep)
        finally:
            mi.seq.write_end()
            mi.rwlock.release_write()

    def _drop_trailing_pages(self, mi: MemInode, cs: CoreState, keep: int) -> None:
        """Zero index slots past ``keep`` and free the data pages: the
        unmapping is fenced before any bitmap bit clears, so no crash
        image maps a page whose bit is clear.  The clears ride the next
        fence; until then a crash leaks the pages, and mount reclaims
        them."""
        dropped = mi.pages[keep:]
        cs.store_index_slots(cs.index_pages(mi.record), keep, [0] * len(dropped))
        mi.mapping.sfence()
        self.alloc.free(*dropped)
        mi.pages = mi.pages[:keep]

    @traced_syscall("fsync")
    def fsync(self, fd: int) -> None:
        """Returns immediately: every operation already persisted (§2.2)."""
        self.fdtable.get(fd)
        self._stats.inc("fsyncs")

    # ================================================================== #
    # Unlink / rmdir
    # ================================================================== #

    @traced_syscall("unlink")
    def unlink(self, path: str) -> None:
        self._unlink(paths.parse(path))

    def _unlink(self, comps: Tuple[str, ...]) -> None:
        """``unlink``'s body, and a transaction's apply and undo."""
        parent, name = self._resolve_parent(comps)
        path = paths.join(comps)
        bucket = self._lock_bucket_attached(parent, name)
        try:
            node = parent.dir.lookup_locked(name)
            if node is None:
                raise NoEntry(path)
            if node.itype == ITYPE_DIR:
                raise IsADir(path)
            ino, loc = node.ino, node.loc
            if loc is not None:
                # Take the file before its name goes, as rmdir takes its
                # child: held elsewhere, this raises with nothing removed.
                # (A dentry not yet committed is §4.4's fault below.)
                self._attach(ino, write=True)
            parent.dir.remove_locked(name)
            with self._inodes_lock:
                self._walk_seq += 1  # as in rmdir: the walk goes now
                mi = self._inodes.get(ino)
                if mi is not None:
                    self._walks.pop(mi.walk, None)
            failpoints.hit("dir.write_mid", path)
            if loc is None:
                # §4.4: the auxiliary state says the entry exists, the core
                # state has no dentry yet — dereferencing "core data" that
                # does not exist is the artifact's segmentation fault.
                raise SimulatedSegfault(
                    f"unlink({path}): aux entry present but core dentry missing"
                )
            cs = parent.cs
            cs.tombstone(loc)
            cs.mem.sfence()  # the unlink is durable on return
        finally:
            bucket.lock.release()
        self._free_file_inode(ino)
        self._stats.inc("unlinks")

    def _free_file_inode(self, ino: int) -> None:
        """Free a just-unlinked file's record and pages, then hand the inode
        back to the kernel (whose verification confirms the deletion when
        the parent is next verified).

        The record free and the bit clears of the page free ride the next
        fence: with the tombstone durable, a crash before it leaves at worst
        a valid record no dentry names, or set bits on unreachable pages —
        leaks mount reclaims."""
        mi = self._attach(ino, write=True)
        mi.rwlock.acquire_write()
        mi.seq.write_begin()
        try:
            cs = mi.cs
            cs.free_inode(ino)
            self.alloc.free(*cs.index_pages(mi.record), *mi.pages)
        finally:
            mi.seq.write_end()
            mi.rwlock.release_write()
        self.kernel.release(self.app_id, ino)
        self._invalidate_aux(ino, mi)

    @traced_syscall("rmdir")
    def rmdir(self, path: str) -> None:
        self._rmdir(paths.parse(path))

    def _rmdir(self, comps: Tuple[str, ...]) -> None:
        """``rmdir``'s body, and a transaction's undo."""
        if not comps:
            raise InvalidArgument("cannot remove the root")
        parent, name = self._resolve_parent(comps)
        path = paths.join(comps)
        bucket = self._lock_bucket_attached(parent, name)
        child_locked = False
        child = None
        try:
            node = parent.dir.lookup_locked(name)
            if node is None:
                raise NoEntry(path)
            if node.itype != ITYPE_DIR:
                raise NotADir(path)
            child = self._attach(node.ino, write=True)
            child.dir.lock_all()
            child_locked = True
            if child.dir.count != 0:
                raise NotEmpty(path)
            if node.loc is None:
                raise SimulatedSegfault(
                    f"rmdir({path}): aux entry present but core dentry missing"
                )
            parent_cs = parent.cs
            parent_cs.tombstone(node.loc)
            parent_cs.mem.sfence()  # the rmdir is durable on return
            parent.dir.remove_locked(name)
            with self._inodes_lock:
                # The name is gone: its walk goes now, not when the aux
                # state does, and a walk that saw the name is not kept.
                self._walk_seq += 1
                self._walks.pop(child.walk, None)
            # Leak-only from here, as in ``_free_file_inode``.
            cs = child.cs
            cs.free_inode(child.ino)
            self.alloc.free(*cs.dir_pages(child.record))
        finally:
            if child_locked:
                child.dir.unlock_all()
            bucket.lock.release()
        self.kernel.release(self.app_id, child.ino)
        self._invalidate_aux(child.ino, child)
        self._stats.inc("rmdirs")

    # ================================================================== #
    # Rename (§3.2 rules, §4.1/§4.6 patches)
    # ================================================================== #

    @traced_syscall("rename")
    def rename(self, oldpath: str, newpath: str) -> None:
        self._rename(paths.parse(oldpath), paths.parse(newpath))

    def _rename(self, oldc: Tuple[str, ...], newc: Tuple[str, ...]) -> None:
        """``rename``'s body, and a transaction's apply and undo."""
        if not oldc or not newc:
            raise InvalidArgument("cannot rename the root")
        if oldc == newc:
            return
        oldpath, newpath = paths.join(oldc), paths.join(newc)

        if self.config.descendant_check and newc[:len(oldc)] == oldc:
            # §4.6 case (2): renaming a directory into its own subtree.
            raise WouldLoop(f"{newpath} is inside {oldpath}")

        old_parent = self._resolve_dir(oldc[:-1])
        src = self._lookup(old_parent, oldc[-1].encode())
        if src is None:
            raise NoEntry(oldpath)
        is_dir = src[1] == ITYPE_DIR

        # Resolve the destination parent before taking the lease so lease
        # hold time stays short.
        new_parent = self._resolve_dir(newc[:-1])
        cross = new_parent.ino != old_parent.ino
        dir_relocation = is_dir and cross

        holding_lease = False
        if dir_relocation:
            if self.config.rename_commit_protocol:
                # Rules (1)+(3): commit the destination chain top-down so
                # the (possibly newly created) new parent is verifiable
                # *before* the rename (Figure 2's resolution).
                self._commit_path_chain(newc[:-1])
            if self.config.global_rename_lock:
                self.kernel.rename_lock_acquire(self.app_id)
                holding_lease = True
        try:
            if holding_lease:
                # Re-resolve under the lease: a concurrent rename may have
                # moved either path while we waited (the §4.6 case-(1)
                # interleaving).  Unpatched ArckFS uses the pre-resolved
                # parents — the TOCTOU window that creates cycles.
                old_parent = self._resolve_dir(oldc[:-1])
                new_parent = self._resolve_dir(newc[:-1])
            failpoints.hit("rename.pre_apply", (oldpath, newpath))
            self._apply_rename(old_parent, oldc, new_parent, newc)
            if dir_relocation and self.config.rename_commit_protocol:
                # Rule (2): commit the new parent before the old parent can
                # be committed/released; this re-targets the shadow parent
                # pointer (§4.1 patch).
                self.kernel.commit(self.app_id, new_parent.ino)
        finally:
            if holding_lease:
                try:
                    self.kernel.rename_lock_release(self.app_id)
                except LeaseExpired:
                    pass  # lapsed mid-operation; the verifier's check (3)
                    # protects integrity, nothing left to release
        self._stats.inc("renames")

    def _commit_path_chain(self, comps: Tuple[str, ...]) -> None:
        """Commit every directory from the root down to ``comps``."""
        chain = [self._resolve(comps[:depth]).ino for depth in range(len(comps) + 1)]
        for ino in chain:
            self._attach(ino, write=True)
            self.kernel.commit(self.app_id, ino)

    def _apply_rename(self, old_parent: MemInode, oldc: Tuple[str, ...],
                      new_parent: MemInode, newc: Tuple[str, ...]) -> None:
        """Move the dentry ``oldc`` names to ``newc``; both parents'
        relevant buckets locked in a global order (ino, bucket index) to
        avoid ABBA deadlocks."""
        oldname, newname = oldc[-1].encode(), newc[-1].encode()
        self._attach(old_parent.ino, write=True)
        self._attach(new_parent.ino, write=True)
        old_bucket = old_parent.dir.bucket_of(oldname)
        new_bucket = new_parent.dir.bucket_of(newname)
        locks = sorted(
            {
                (old_parent.ino, old_parent.dir.bucket_index(oldname)): old_bucket,
                (new_parent.ino, new_parent.dir.bucket_index(newname)): new_bucket,
            }.items()
        )
        for _key, bucket in locks:
            bucket.lock.acquire()
        try:
            src = old_parent.dir.lookup_locked(oldname)
            if src is None:
                raise NoEntry(paths.join(oldc))
            if new_parent.dir.lookup_locked(newname) is not None:
                raise Exists(paths.join(newc))
            if src.loc is None:
                raise SimulatedSegfault(
                    f"rename: aux entry {oldname!r} has no core dentry"
                )
            new_seq = src.seq + 1
            loc = self._append_dentry(
                new_parent, newname, src.ino, src.gen, src.itype, new_seq
            )
            node = self.freelist.alloc(newname, src.ino, src.gen, src.itype,
                                       new_seq, loc)
            new_parent.dir.insert_locked(node)
            # Unfenced: the append's fence made the new name durable, and
            # the higher seq wins it the child at mount, which tombstones
            # the old name if this store did not persist.  The next fence
            # takes it.
            old_parent.cs.tombstone(src.loc)
            ino, moved_dir = src.ino, src.itype == ITYPE_DIR
            old_parent.dir.remove_locked(oldname)
            with self._inodes_lock:
                # The old name (and, for a directory, every name under it)
                # stopped resolving just now: forget the walks that end at
                # or pass through the child, remember none that may have
                # seen the old link.  Any earlier and a re-resolution under
                # the lease (§4.6 case 1) could be answered a pre-move chain.
                self._walk_seq += 1
                child_mi = self._inodes.get(ino)
                if child_mi is not None:
                    child_mi.parent_ino = new_parent.ino
                if moved_dir:
                    for comps in [c for c, walk in self._walks.items()
                                  if any(mi.ino == ino for mi, _v in walk)]:
                        del self._walks[comps]
                elif child_mi is not None:
                    self._walks.pop(child_mi.walk, None)
        finally:
            for _key, bucket in reversed(locks):
                bucket.lock.release()

    # ================================================================== #
    # Trio ownership verbs
    # ================================================================== #

    def path_ino(self, path: str) -> int:
        """The inode ``path`` names now (for the by-inode ownership verbs),
        unattached: each verb attaches it as it needs."""
        walk, entry = self._walk(paths.parse(path), self._walk_seq)
        return walk[-1][0].ino if entry is None else entry[0]

    @traced_syscall("commit_path")
    def commit_path(self, path: str) -> None:
        """Verify the inode in place, retaining ownership ([21, §4.3])."""
        ino = self.path_ino(path)
        mi = self._attach(ino, write=True)
        try:
            self.kernel.commit(self.app_id, ino)
        except Exception:
            self._invalidate_aux(ino, mi)
            raise

    @traced_syscall("release_path")
    def release_path(self, path: str) -> None:
        self.release_ino(self.path_ino(path))

    @traced_syscall("release_ino")
    def release_ino(self, ino: int) -> None:
        """Voluntary release (§4.3 — the patch changes everything here)."""
        with self._inodes_lock:
            mi = self._inodes.get(ino)
        if mi is None:
            return
        if mi.borrowed:
            # No kernel acquisition exists — hand the mapping back to the
            # shared table locally, no crossing.  The MemInode (and the
            # now-unmapped mapping object) is retained like any §4.3
            # release, so open fds re-attach on demand.
            self.kernel.readcache.detach(ino, mi.mapping)
            mi.borrowed = False
            return
        if not mi.attached:
            return
        if self.config.locked_release:
            # ArckFS+: exclude every concurrent operation, then unmap; the
            # auxiliary state and locks are retained for cached reads.
            if mi.is_dir:
                mi.dir.lock_all()
            else:
                mi.rwlock.acquire_write()
                mi.seq.write_begin()  # optimistic readers retry, then re-attach
            try:
                failpoints.hit("release.pre_unmap", ino)
                try:
                    # Told the new version, what we retain stays current.
                    mi.aux_version = self.kernel.release(self.app_id, ino)
                except Exception:
                    self._invalidate_aux(ino, mi)
                    raise
            finally:
                if mi.is_dir:
                    mi.dir.unlock_all()
                else:
                    mi.seq.write_end()
                    mi.rwlock.release_write()
        else:
            # ArckFS: no exclusion, and the auxiliary state is freed while
            # other threads may still be traversing it (§4.3 bug).
            failpoints.hit("release.pre_unmap", ino)
            try:
                self.kernel.release(self.app_id, ino)
            finally:
                self._invalidate_aux(ino, mi)
                if mi.is_dir:
                    mi.dir.clear_and_free()

    def _invalidate_aux(self, ino: int, mi: MemInode) -> None:
        """Drop ``mi``, an inode's auxiliary state, and its index entries:
        the inode is gone, or a verification failure may have rolled the
        core state back.  Only ``mi``: the callers released the inode
        first, so a sibling thread may have created into its slot since."""
        with self._inodes_lock:
            for index in (self._inodes, self._mapped):
                if index.get(ino) is mi:
                    del index[ino]
            self._walks.pop(mi.walk, None)

    def release_all(self) -> None:
        """Release everything, parents before children (LibFS Rule (1)).

        Visits only the indexed MemInodes, so the cost follows what is
        attached, not what the session has ever seen.  ``attached`` is
        still consulted: the kernel may have revoked behind our back.
        """
        with self._inodes_lock:
            owned = [mi for mi in self._mapped.values() if mi.attached]
        try:
            # Ties release in ``_inodes`` insertion order.
            for mi in sorted(owned, key=lambda m: (self._depth(m), m.order)):
                if mi.attached:
                    try:
                        self.release_ino(mi.ino)
                    except FSError:
                        pass
        finally:
            with self._inodes_lock:
                self._mapped = {ino: mi for ino, mi in self._mapped.items()
                                if mi.attached}
            # Ownership handed back: return pool-reserved pages to the
            # bitmap so nothing stays reserved on behalf of this application
            # (also when a verification failure cut the loop short).
            self.alloc.drain_pools()

    def _depth(self, mi: MemInode) -> int:
        depth = 0
        node = mi
        seen = set()
        while node is not None and node.ino != ROOT_INO and node.ino not in seen:
            seen.add(node.ino)
            depth += 1
            if node.parent_ino is None:
                return depth + 100  # unknown lineage: release late
            with self._inodes_lock:
                node = self._inodes.get(node.parent_ino)
        return depth

    # ================================================================== #
    # Conveniences (shared contract with repro.basefs.base.FileSystem)
    # ================================================================== #

    @traced_syscall("write_file")
    def write_file(self, path: str, data: bytes) -> None:
        """Write ``data`` at offset 0 of ``path``, created if missing.  It
        never truncates: ``Tx.write_file`` stages a truncate, this does not.
        No descriptor: one write attach, then ``pwrite``'s body."""
        comps = paths.parse(path)
        while True:
            try:
                self._pwrite(self._writable_file(comps, create=True), data, 0)
                return
            except BadFileDescriptor:
                pass  # unlinked, its slot reused, since the walk: walk again

    @traced_syscall("read_file")
    def read_file(self, path: str) -> bytes:
        """The whole of ``path``, as ``write_file`` leaves it (never
        truncated).  No descriptor: one resolution, then ``pread``'s body."""
        comps = paths.parse(path)
        while True:
            mi = self._resolve(comps)
            if mi.is_dir:
                raise IsADir(paths.join(comps))
            try:
                return self._pread(mi, mi.size, 0)
            except BadFileDescriptor:
                pass  # as in write_file

    def makedirs(self, path: str) -> None:
        comps = paths.parse(path)
        for depth in range(1, len(comps) + 1):
            try:
                self._resolve(comps[:depth])
            except NoEntry:
                self._mkdir(comps[:depth])

    def quiesce(self) -> None:
        """Run deferred RCU frees and drain the allocator's page pools
        (test/shutdown helper): afterwards no DRAM-only reservation — node
        or page — is outstanding."""
        self.rcu.barrier()
        self.alloc.drain_pools()

    def shutdown(self) -> None:
        self.fdtable.close_all()
        self.release_all()
        self.quiesce()
        self.kernel.app_shutdown(self.app_id)
