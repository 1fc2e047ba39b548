"""Readers and writers for the ArckFS core state.

All functions take a *memory* object (``mem``) that is either the raw
:class:`~repro.pm.device.PMDevice` (kernel side: verifier, recovery) or a
revocable :class:`~repro.pm.mapping.Mapping` (LibFS side), both exposing the
same load/store/clwb/sfence interface.

The one protocol worth spelling out is dentry creation (paper §4.2).  On
hardware with 16-byte atomic stores, ArckFS commits a new dentry like this:

1. write the child's inode record and the dentry record with the commit
   marker (``name_len``) still 0, and ``clwb`` every affected cache line
   *except* the one containing the marker (the artifact's optimisation:
   that line will be flushed once, in step 2);
2. store the real ``name_len`` with an atomic 2-byte store, ``clwb`` its
   line, ``sfence``.

The final fence completes all write-backs queued in step 1, so on the
success path everything is durable.  The *bug* is the missing fence between
the steps: before the final fence, the marker line can be evicted (and hence
persisted) ahead of the body lines — a crash then leaves a dentry whose
marker says "valid" but whose body, or whose inode record, is garbage.
ArckFS+ adds one ``sfence`` at the end of step 1 (``fence_before_marker``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ChainCorrupt, InvalidArgument, NameTooLong, PersistOrderError
from repro.pm.allocator import PageAllocator
from repro.pm.device import CACHE_LINE
from repro.pm.layout import (
    DENTRY_DELETED_OFF,
    DENTRY_HEADER,
    DENTRY_MARKER_OFF,
    INDEX_SLOTS,
    INODE_SIZE_OFF,
    MAX_NAME,
    PAGE_KIND_DIRLOG,
    PAGE_KIND_INDEX,
    PAGE_PAYLOAD,
    PAGE_SIZE,
    PAGEHDR_SIZE,
    Dentry,
    Geometry,
    InodeRecord,
    PageHeader,
    Superblock,
)


@dataclass(frozen=True)
class DentryLoc:
    """Where a dentry record lives: (tail index, page number, byte offset)."""

    tail: int
    page_no: int
    offset: int


@dataclass
class TailCursor:
    """DRAM-side cursor for one directory-log tail (last page + bytes used).

    Part of the auxiliary state: rebuilt by scanning the tail chain, and kept
    by the LibFS so appends are O(1).
    """

    head_page: int = 0
    last_page: int = 0
    used: int = 0


class CoreState:
    """Stateless helpers bound to a (memory, geometry) pair: the chain and
    page primitives, the mutators, and the page lists snapshots and frees
    use.  An inode's records are read in :mod:`repro.core.invariants`."""

    def __init__(self, mem, geom: Geometry):
        self.mem = mem
        self.geom = geom

    # ------------------------------------------------------------------ #
    # Superblock / inode records
    # ------------------------------------------------------------------ #

    def superblock(self) -> Superblock:
        return Superblock.unpack(self.mem.load(0, Superblock.SIZE))

    def read_inode(self, ino: int) -> InodeRecord:
        raw = self.mem.load(self.geom.inode_off(ino), InodeRecord.SIZE)
        return InodeRecord.unpack(raw)

    def read_inodes(self) -> List[InodeRecord]:
        """The whole inode table, by ino, in one load."""
        size = InodeRecord.SIZE
        raw = memoryview(self.mem.load(self.geom.itable_off,
                                       self.geom.inode_count * size))
        return [InodeRecord.unpack(raw[off:off + size])
                for off in range(0, len(raw), size)]

    def write_inode(self, ino: int, rec: InodeRecord, *, persist: bool = True) -> None:
        off = self.geom.inode_off(ino)
        self.mem.store(off, rec.pack())
        if persist:
            self.mem.persist(off, InodeRecord.SIZE)

    def write_inode_noflush(self, ino: int, rec: InodeRecord) -> None:
        """Store + clwb but no fence (step 1 of the creation protocol)."""
        off = self.geom.inode_off(ino)
        self.mem.store(off, rec.pack())
        self.mem.clwb(off, InodeRecord.SIZE)

    def set_file_size(self, ino: int, size: int) -> None:
        """Atomically commit a file's size (the data-write commit point)."""
        addr = self.geom.inode_off(ino) + INODE_SIZE_OFF
        self.mem.atomic_store(addr, struct.pack("<Q", size))
        self.mem.persist(addr, 8)

    def free_inode(self, ino: int) -> None:
        """Mark an inode record free (after its dentry was tombstoned):
        store + clwb, no fence — the caller fences.  Only an orphan waits
        on it: a valid record no live dentry names, which mount reclaims
        (the orphan rule, beside ``MOUNT_CLASSES`` in ``fsck/repair.py``)."""
        rec = self.read_inode(ino)
        rec.magic = 0
        rec.itype = 0
        self.write_inode_noflush(ino, rec)

    # ------------------------------------------------------------------ #
    # Page helpers
    # ------------------------------------------------------------------ #

    def read_page_header(self, page_no: int) -> PageHeader:
        return PageHeader.unpack(self.mem.load(self.geom.page_off(page_no), PAGEHDR_SIZE))

    def init_page(self, page_no: int, kind: int) -> None:
        off = self.geom.page_off(page_no)
        self.mem.store(off, PageHeader(0, 0, kind).pack())
        self.mem.persist(off, PAGEHDR_SIZE)

    def link_page(self, prev_page: int, new_page: int) -> None:
        """Persistently set prev.next = new (chain extension)."""
        off = self.geom.page_off(prev_page)  # next_page is the first field
        self.mem.atomic_store(off, struct.pack("<Q", new_page))
        self.mem.persist(off, 8)

    # ------------------------------------------------------------------ #
    # Directory logs (multi-tailed)
    # ------------------------------------------------------------------ #

    def walk_chain(
        self, head: int, *, limit: Optional[int] = None
    ) -> Iterator[Tuple[int, PageHeader]]:
        """Follow ``next_page`` links from ``head``: the one chain reader.

        Directory-log tails, file index chains and the tx redo log are all
        such chains.  Yields ``(page_no, header)`` for the good prefix (at
        most ``limit`` pages), then raises :class:`ChainCorrupt` if the
        next link leaves the page range or revisits a page of this chain.
        """
        seen: Set[int] = set()
        last_good = 0
        page_no = head
        while page_no and (limit is None or len(seen) < limit):
            if page_no in seen or not 1 <= page_no <= self.geom.page_count:
                raise ChainCorrupt(page_no, last_good)
            seen.add(page_no)
            hdr = self.read_page_header(page_no)
            yield page_no, hdr
            last_good = page_no
            page_no = hdr.next_page

    def page_dentries(
        self, page_no: int, tail: int = -1
    ) -> Tuple[List[Tuple[DentryLoc, Dentry]], int]:
        """Every parseable record of one log page, and the payload bytes
        they use.

        Parsing stops at the first record whose header is unparseable
        (zero or bogus ``rec_len``) — that is the uncommitted tail left by
        a crash.  Records with a zero marker or a set tombstone are still
        returned (the rules judge them).  One caller: ``invariants.read_tail``.
        """
        records: List[Tuple[DentryLoc, Dentry]] = []
        base = self.geom.page_off(page_no)
        off = PAGEHDR_SIZE
        while off + DENTRY_HEADER <= PAGE_SIZE:
            raw = self.mem.load(base + off, min(DENTRY_HEADER + MAX_NAME, PAGE_SIZE - off))
            d = Dentry.unpack(raw)
            if d.rec_len == 0:
                break
            if d.rec_len % 8 != 0 or off + d.rec_len > PAGE_SIZE:
                break  # torn header: treat as end of log
            records.append((DentryLoc(tail, page_no, off), d))
            off += d.rec_len
        return records, off - PAGEHDR_SIZE

    def scan_tail(
        self, head_page: int, tail: int = -1
    ) -> Tuple[TailCursor, List[Tuple[DentryLoc, Dentry]]]:
        """One tail's cursor and records through the one reader: kept only
        for the wall-clock benchmark's probe; nothing in the package calls it."""
        from repro.core.invariants import read_tail

        chain, records = read_tail(self, head_page, tail)
        return chain.cursor(), records

    def dir_pages(self, rec: InodeRecord) -> List[int]:
        """All log pages owned by a directory inode, tail by tail."""
        return [p for head in rec.tails for p, _hdr in self.walk_chain(head)]

    def owned_pages(self, rec: InodeRecord) -> List[int]:
        """Every page hanging off an inode: a directory's log pages, or a
        file's index chain (walked once) followed by its data pages."""
        if rec.is_dir:
            return self.dir_pages(rec)
        index = self.index_pages(rec)
        return index + list(self.data_pages(index))

    # -- appends --------------------------------------------------------- #

    def _clwb_skipping_marker(self, rec_addr: int, rec_len: int, marker_addr: int) -> None:
        """clwb every line of the record except the marker's line."""
        marker_line = marker_addr // CACHE_LINE
        first = rec_addr // CACHE_LINE
        last = (rec_addr + rec_len - 1) // CACHE_LINE
        for lineno in range(first, last + 1):
            if lineno == marker_line:
                continue
            self.mem.clwb(lineno * CACHE_LINE, 1)

    def append_dentry(
        self,
        dir_ino: int,
        dir_rec: InodeRecord,
        tail_idx: int,
        cursor: TailCursor,
        name: bytes,
        child_ino: int,
        child_gen: int,
        itype: int,
        seq: int,
        alloc: PageAllocator,
        *,
        fence_before_marker: bool,
        failpoints=None,
    ) -> DentryLoc:
        """Append and commit one dentry using the commit-marker protocol.

        ``fence_before_marker`` is the §4.2 patch: True under ArckFS+,
        False under the buggy ArckFS.  ``cursor`` is updated in place and
        ``dir_rec.tails`` may gain a head page (the caller persists the
        inode record change via us).

        The caller must hold the tail lock for ``tail_idx`` (and, under the
        ArckFS+ §4.4 patch, the relevant bucket lock).
        """
        if not name or len(name) > MAX_NAME:
            raise NameTooLong(f"name of {len(name)} bytes")
        rec_len = Dentry.record_len(name)

        if cursor.head_page == 0:
            head = alloc.alloc()
            self.init_page(head, PAGE_KIND_DIRLOG)
            dir_rec.tails[tail_idx] = head
            # Persist the new tail head pointer in the inode record.
            self.write_inode(dir_ino, dir_rec)
            cursor.head_page = head
            cursor.last_page = head
            cursor.used = 0
        if cursor.used + rec_len > PAGE_PAYLOAD:
            new_page = alloc.alloc()
            self.init_page(new_page, PAGE_KIND_DIRLOG)
            self.link_page(cursor.last_page, new_page)
            cursor.last_page = new_page
            cursor.used = 0

        offset = PAGEHDR_SIZE + cursor.used
        rec_addr = self.geom.page_off(cursor.last_page) + offset
        marker_addr = rec_addr + DENTRY_MARKER_OFF

        # Step 1: full record with marker = 0; flush all lines but the
        # marker's (each cache line is persisted only once — the artifact's
        # optimisation the §4.2 bug hides in).
        d = Dentry(
            ino=child_ino,
            gen=child_gen,
            seq=seq,
            rec_len=rec_len,
            name_len=0,
            itype=itype,
            deleted=0,
            name=name,
        )
        self.mem.store(rec_addr, d.pack())
        self._clwb_skipping_marker(rec_addr, rec_len, marker_addr)

        if fence_before_marker:
            self.mem.sfence()  # the ArckFS+ one-line patch (§4.2)

        # Step 2: atomically set the commit marker, flush its line, fence.
        self.mem.atomic_store(marker_addr, struct.pack("<H", len(name)))
        self.mem.clwb(marker_addr, 2)
        if failpoints is not None:
            # §4.2 reproduction point: marker flushed, final fence not yet
            # issued — the window in which the marker line may persist ahead
            # of the body/inode lines.
            failpoints.hit("create.post_marker")
        self.mem.sfence()

        cursor.used += rec_len
        return DentryLoc(tail_idx, cursor.last_page, offset)

    def tombstone(self, loc: DentryLoc) -> None:
        """Mark a dentry deleted, in place: an atomic store + clwb, no
        fence — the caller fences what must be durable on return."""
        addr = self.geom.page_off(loc.page_no) + loc.offset + DENTRY_DELETED_OFF
        self.mem.atomic_store(addr, b"\x01")
        self.mem.clwb(addr, 1)

    # ------------------------------------------------------------------ #
    # File page indexes and data
    # ------------------------------------------------------------------ #

    def index_pages(self, rec: InodeRecord) -> List[int]:
        """The pages of a regular file's index chain, in order."""
        return [p for p, _hdr in self.walk_chain(rec.index_root)]

    def data_pages(self, index_pages: List[int]) -> Iterator[int]:
        """The data page numbers an index chain maps, in file order, up to
        the first empty slot; raises :class:`ChainCorrupt` at a slot that
        points outside the page range."""
        for idx_page in index_pages:
            raw = self.mem.load(self.geom.page_off(idx_page) + PAGEHDR_SIZE, INDEX_SLOTS * 8)
            for (page_no,) in struct.iter_unpack("<Q", raw):
                if page_no == 0:
                    return
                if not 1 <= page_no <= self.geom.page_count:
                    raise ChainCorrupt(page_no, idx_page)
                yield page_no

    def index_slot_addr(self, index_pages: List[int], pos: int) -> int:
        """Device address of the slot mapping a file's ``pos``-th page."""
        return (self.geom.page_off(index_pages[pos // INDEX_SLOTS])
                + PAGEHDR_SIZE + pos % INDEX_SLOTS * 8)

    def store_index_slots(self, index_pages: List[int], pos: int,
                          page_nos: Sequence[int]) -> None:
        """Map a file's pages ``pos, pos+1, ...`` to ``page_nos`` (0 unmaps
        one) and queue the write-back; the caller fences.

        One store and one ``clwb`` per index page touched.  A plain store is
        enough because each slot is an aligned 8-byte word, which the CPU
        stores atomically: a crash may tear the run between slots, but
        leaves every slot wholly old or wholly new.  The alignment is
        checked here, as :meth:`PMDevice.atomic_store` would check it.
        """
        done, n = 0, len(page_nos)
        while done < n:
            slot = (pos + done) % INDEX_SLOTS
            take = min(n - done, INDEX_SLOTS - slot)
            addr = self.index_slot_addr(index_pages, pos + done)
            if addr % 8:
                raise PersistOrderError(f"index slot at {addr} is not 8-byte aligned")
            self.mem.store(addr, struct.pack(f"<{take}Q", *page_nos[done:done + take]))
            self.mem.clwb(addr, take * 8)
            done += take

    def trim_to_size(self, size: int, index: List[int],
                     data: List[int]) -> Tuple[List[int], bool]:
        """The ``data`` pages a regular file with page index ``index``
        maps, as walked, with nothing kept past its committed ``size``, and
        whether anything was stored.

        Mount's repair of a crash inside an append or a shrink: slots
        mapped past ``ceil(size / PAGE_SIZE)`` are cleared — those after the
        first clear slot too, which a torn shrink can leave and a later
        append would expose — and the last page's bytes past ``size`` are
        zeroed when any is not, so an extension reads zeros.  Stores and
        ``clwb`` only; the caller fences when the flag is set.  A file whose
        size exceeds its pages is left to fsck.
        """
        keep = -(-size // PAGE_SIZE)
        # ``end``: one past the last mapped slot, the first clear one or not.
        end = len(data)
        first, skip = divmod(end, INDEX_SLOTS)
        for n in range(first, len(index)):
            raw = self.mem.load(self.geom.page_off(index[n]) + PAGEHDR_SIZE + skip * 8,
                                (INDEX_SLOTS - skip) * 8)
            if raw != bytes(len(raw)):
                end = n * INDEX_SLOTS + skip + -(-len(raw.rstrip(b"\0")) // 8)
            skip = 0
        stored = False
        if end > keep:
            self.store_index_slots(index, keep, [0] * (end - keep))
            data = data[:keep]
            stored = True
        tail = size % PAGE_SIZE
        if tail and len(data) == keep:
            addr = self.geom.page_off(data[-1]) + tail
            if self.mem.load(addr, PAGE_SIZE - tail) != bytes(PAGE_SIZE - tail):
                self.mem.ntstore(addr, bytes(PAGE_SIZE - tail))
                stored = True
        return data, stored

    def append_file_pages(
        self,
        ino: int,
        rec: InodeRecord,
        existing_count: int,
        new_pages: List[int],
        alloc: PageAllocator,
    ) -> None:
        """Link freshly written data pages into the file's index, durably:
        the one fence here also makes the caller's data writes durable,
        before the caller commits the size.

        Index slots are filled in order; the file's committed length is
        still governed by the inode ``size`` field.  A crash mid-append
        leaves slots past the old size mapping pages whose bytes were never
        committed (or never written at all), which a later extension would
        expose: mount unmaps them (:meth:`trim_to_size`).
        """
        if not new_pages:
            return
        # Locate the index page/slot for entry number ``existing_count``.
        chain = self.index_pages(rec)
        needed_pages = (existing_count + len(new_pages) + INDEX_SLOTS - 1) // INDEX_SLOTS
        while len(chain) < needed_pages:
            new_idx = alloc.alloc()
            self.init_page(new_idx, PAGE_KIND_INDEX)
            if chain:
                self.link_page(chain[-1], new_idx)
            else:
                rec.index_root = new_idx
                self.write_inode(ino, rec)
            chain.append(new_idx)
        self.store_index_slots(chain, existing_count, new_pages)
        self.mem.sfence()

    def read_file_data(self, pages: List[int], size: int, off: int, n: int) -> bytes:
        # A file has no holes (``size <= len(pages) * PAGE_SIZE`` is verified
        # on every ownership transfer); a forged size past the mapped pages
        # reads as a short file instead of being trusted.
        size = min(size, len(pages) * PAGE_SIZE)
        n = min(n, size - off)
        if n <= 0:
            return b""
        first, in_page = divmod(off, PAGE_SIZE)
        page_off = self.geom.page_off
        # One page, the common 4 KiB read: planning it would add about a
        # quarter to its latency.
        if in_page + n <= PAGE_SIZE:
            return self.mem.load(page_off(pages[first]) + in_page, n)
        # Plan the read as (addr, nbytes) chunks, one per run of consecutive
        # page numbers split where the layout breaks physical contiguity
        # (stripe units), merging chunks that still turn out adjacent; then
        # fetch the lot in one batched gather (counted per member on a
        # striped device) that returns the joined bytes.
        end = off + n
        last = (end - 1) // PAGE_SIZE
        plan: List[Tuple[int, int]] = []
        i = first
        while i <= last:
            start = pages[i]
            j = i + 1
            while j <= last and pages[j] == start + j - i:
                j += 1
            page_off(start + j - i - 1)  # range-check the run's tail
            for run_start, count in self.geom.extent_runs(start, j - i):
                lo = max(off, i * PAGE_SIZE)
                hi = min(end, (i + count) * PAGE_SIZE)
                addr = page_off(run_start) + lo - i * PAGE_SIZE
                if plan and plan[-1][0] + plan[-1][1] == addr:
                    plan[-1] = (plan[-1][0], plan[-1][1] + hi - lo)
                else:
                    plan.append((addr, hi - lo))
                i += count
        if len(plan) == 1:
            return self.mem.load(*plan[0])
        return self.mem.load_gather(plan)

    def write_page_data(self, page_no: int, in_page_off: int, data: bytes) -> None:
        """Store data into one page and queue its write-back (no fence)."""
        if in_page_off + len(data) > PAGE_SIZE:
            raise InvalidArgument("write crosses page boundary")
        addr = self.geom.page_off(page_no) + in_page_off
        self.mem.ntstore(addr, data)

    def write_extent_data(self, start_page: int, in_page_off: int,
                          data: bytes) -> None:
        """Store data across *physically consecutive* pages (no fence).

        The caller guarantees pages ``start_page .. start_page+n-1`` are
        consecutive page numbers; the layout makes their bytes contiguous,
        so the whole extent is one non-temporal stream with one queued
        write-back instead of a store per page.
        """
        if not data:
            return
        # One page, the common 4 KiB write: as in ``read_file_data``, no
        # plan — a page never crosses a stripe unit, and ``page_off``
        # range-checks it.
        if in_page_off + len(data) <= PAGE_SIZE:
            self.mem.ntstore(self.geom.page_off(start_page) + in_page_off, data)
            return
        if in_page_off >= PAGE_SIZE:
            raise InvalidArgument("extent offset beyond the first page")
        npages = (in_page_off + len(data) + PAGE_SIZE - 1) // PAGE_SIZE
        self.geom.page_off(start_page + npages - 1)  # range-check the tail
        runs = list(self.geom.extent_runs(start_page, npages))
        if len(runs) == 1:
            self.mem.ntstore(self.geom.page_off(start_page) + in_page_off, data)
            return
        # On a striped device the extent crosses stripe units: one ntstore
        # per physically-contiguous run, in one batch.  The caller's single
        # sfence still covers all of it (it fences every member dirtied).
        # Each run is a view of ``data``: the store is its only copy.
        view = memoryview(data)
        ops = []
        pos = 0
        off = in_page_off
        for run_start, run_count in runs:
            nbytes = min(len(data) - pos, run_count * PAGE_SIZE - off)
            ops.append((self.geom.page_off(run_start) + off, view[pos:pos + nbytes]))
            pos += nbytes
            off = 0
        self.mem.ntstore_scatter(ops)
