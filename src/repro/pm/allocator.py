"""Persistent page allocator: per-thread pools over a PM bitmap.

Pages are 4 KiB; page numbers are 1-based (0 means "no page").  The bitmap
lives in PM.  Allocation persists the set bit *before* the page is linked
anywhere, so a crash can at worst leak pages — never double-allocate after
recovery.  ``rebuild`` reconstructs the bitmap from the set of reachable
pages, reclaiming such leaks, and is run by recovery/mount.

Scalability (KucoFS-style partitioned allocation): instead of taking one
global lock per page, each thread owns a small *pool* of pre-reserved
pages.  A pool refill takes the shared bitmap lock **once**, scans the DRAM
shadow at byte granularity (whole-0xFF bytes are skipped), sets all the
bits, and issues **one** batched bitmap write-back plus one fence for the
whole batch.  Every page the refill *pools* is stamped with
:data:`RESERVATION_TAG` in its first 8 bytes under that same fence, so fsck
can tell a warm-pool reservation apart from a genuinely leaked page.  The
pages the refill hands straight to its caller are not stamped: the caller
overwrites them before it links them, so a tag there would only cost a
store, a ``clwb`` and, on a striped device, a fence on one more member.

The pool serves *small* allocations: ``alloc`` and an ``alloc_many`` of
fewer than ``pool_pages`` pages.  An extent — ``alloc_many`` of
``pool_pages`` or more — comes straight from the bitmap in one refill of
exactly its size, which pools and tags nothing and leaves the caller's pool
as it was, so the next small allocation is still a pool hit.

The crash story stays leak-only: pooled pages have their bits durably set
but are linked to no inode, exactly like a page allocated-but-unlinked by
the seed allocator.  ``rebuild`` (mount) reclaims them; ``drain_pools``
(quiesce/shutdown) returns them with one batched persist; fsck classifies
them as advisory ``page-reserved`` findings and ``--repair`` clears them.
A page handed out but not yet linked when the machine crashes is in the
same state minus the tag: fsck reports it as ``page-leak`` and mount
reclaims it, as it would any allocated-but-unlinked page.

A transaction's log pages are not freed but recycled: its checkpoint
stamps them with the tag under the fence that clears the seal
(:meth:`PageAllocator.tag_for_pool`), then keeps them in the committing
thread's pool (:meth:`PageAllocator.repool`), up to ``pool_pages``, apart
from the pages small allocations draw: only a log's ``alloc_many(...,
log=True)`` draws them first, so the next commit's log lands on the same
pages whatever the thread allocated in between, and a warm commit stores
no bitmap byte.  On a striped volume that also keeps the members a commit
fences the same from one commit to the next.  Their bits are never
cleared, so a crash anywhere in that cycle finds them allocated: the seal
still set over the chain (mount replays or discards the log), or no seal
and each page unlinked with the tag (``page-reserved``) or without it
(``page-leak``), both of which ``rebuild`` reclaims.  A later commit's log over the same
pages is a stale log under a fresh seal until its own seal's fence: the
seal's tag tells them apart, as it does on any reused page.

Freeing is batched the same way: ``free(*pages)`` checks the whole batch,
then clears its bits with one store and one ``clwb`` per run of dirty
bitmap bytes, and **no** fence: the clears ride the caller's next fence.
The caller has already unmapped the pages and fenced that, so a crash
before the clears are durable — all, some or none of the bitmap lines
persisted — leaves set bits only on pages nothing links to: the same leak
``rebuild`` reclaims, never a mapped page marked free.  A page is reused
only through a refill, whose own fence makes the clear durable first.

``pool_pages`` is the refill size.  The kernel controller runs with
:data:`DEFAULT_POOL_PAGES`; the fsck repairer and injectors pass ``1``, so a
refill hands out everything it reserves, tags nothing and leaves nothing
reserved on the volume they are cleaning or corrupting.  The seed
allocator (global lock, one bitmap persist and one durable zero *per
page*) survives only as its measured costs,
``repro.experiments.SEED_ALLOC`` and ``SEED_PWRITE_1MIB``.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DoubleFree, NoSpace
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry

#: Pages reserved per pool refill when the caller does not choose.
DEFAULT_POOL_PAGES = 64

#: Stamp written into the first 8 bytes of every page a refill pools, under
#: the refill's fence.  Every caller overwrites a page before it links it
#: (durable zeroing, page header init, or a full data overwrite), so a page
#: carrying the tag is by construction reserved-but-unlinked — fsck's
#: ``page-reserved`` class.
RESERVATION_TAG = b"ARKPOOL\0"

_ZERO_PAGE = b"\0" * PAGE_SIZE
_NONZERO = re.compile(rb"[^\0]+")


def set_pages(bits, first: int, last: int) -> List[int]:
    """The pages in ``[first, last]`` whose bit (``page - 1``) is set in
    the bitmap ``bits``, in order: a scan that visits only the runs of
    non-zero bytes, so a sparse bitmap costs about its set bits."""
    pages: List[int] = []
    for run in _NONZERO.finditer(bits, (first - 1) >> 3, (last + 7) >> 3):
        for byte_off in range(run.start(), run.end()):
            b, base = bits[byte_off], (byte_off << 3) + 1
            pages.extend(p for p in range(max(base, first), min(base + 8, last + 1))
                         if b >> (p - base) & 1)
    return pages


@dataclass
class AllocStats:
    """Operation counters (an observed run publishes their delta as
    ``alloc.*``)."""

    allocs: int = 0
    frees: int = 0
    pool_hits: int = 0
    pool_refills: int = 0
    refill_pages: int = 0
    lock_acquires: int = 0
    drained_pages: int = 0
    steals: int = 0


class _ThreadPool:
    """One thread's reserve of pre-allocated page numbers.

    The pool has its own small lock (not for its owner's benefit — the
    owner is one thread — but so drain, steal, ``rebuild`` and privileged
    bit flips may safely reach into foreign pools).  Lock discipline: a
    pool lock is never held while acquiring the shared bitmap lock; the
    reverse nesting (bitmap lock → pool lock) is allowed.
    """

    __slots__ = ("lock", "pages", "log")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pages: List[int] = []
        #: the log pages the last checkpoint on this thread kept for its
        #: next log; nothing but a log draws them, except under pressure.
        self.log: List[int] = []


class PageAllocator:
    """Bitmap allocator over the device's page area, with per-thread pools."""

    def __init__(self, device: PMDevice, geom: Geometry, *,
                 pool_pages: int = DEFAULT_POOL_PAGES):
        self._device = device
        self._geom = geom
        self._lock = threading.Lock()  # shared bitmap + free-count
        self._hint_byte = 0   # byte-granularity scan cursor
        if pool_pages < 1:
            raise ValueError("pool_pages must be >= 1")
        self._pool_pages = pool_pages
        # DRAM shadow of the bitmap for O(1) scanning; PM stays authoritative.
        self._bits = bytearray(device.load(geom.bitmap_off, self._bitmap_bytes()))
        #: cached count of bitmap-free pages (pooled pages are *not* free
        #: here; ``free_pages`` adds them back) — O(1) instead of popcount.
        self._free_count = geom.page_count - self._popcount()
        #: maintained hand-out set — O(1) ``allocated_set`` instead of a
        #: full bitmap scan.  Seeded from the bitmap: at construction time
        #: every set bit is a page some prior incarnation handed out.
        self._acct_lock = threading.Lock()
        self._handed_out: Set[int] = set(
            set_pages(self._bits, 1, geom.page_count))
        self.stats = AllocStats()
        self._pools: List[_ThreadPool] = []
        self._pools_lock = threading.Lock()
        self._tl = threading.local()

    # ------------------------------------------------------------------ #
    # Bit helpers
    # ------------------------------------------------------------------ #

    def _bitmap_bytes(self) -> int:
        return (self._geom.page_count + 7) // 8

    def _popcount(self) -> int:
        return bin(int.from_bytes(self._bits, "little")).count("1")

    def _test(self, page_no: int) -> bool:
        idx = page_no - 1
        return bool(self._bits[idx >> 3] & (1 << (idx & 7)))

    def _set_bit(self, page_no: int) -> None:
        """Kernel-privileged claim of one page (corruption-resolution
        rollback): persists its bit and keeps the cached free count, the
        hand-out set and the pools coherent."""
        idx = page_no - 1
        byte_off = idx >> 3
        with self._lock:
            if not self._test(page_no):
                self._free_count -= 1
            self._bits[byte_off] |= 1 << (idx & 7)
            self._write_bitmap_range(byte_off, byte_off)
            self._device.sfence()
            # A resurrected page must not sit in any thread's pool.
            for pool in self._all_pools():
                with pool.lock:
                    for pages in (pool.pages, pool.log):
                        if page_no in pages:
                            pages.remove(page_no)
        with self._acct_lock:
            self._handed_out.add(page_no)

    def _write_bitmap_range(self, lo: int, hi: int) -> None:
        """Write shadow bytes [lo, hi] back to PM and queue their write-back."""
        addr = self._geom.bitmap_off + lo
        self._device.store(addr, bytes(self._bits[lo : hi + 1]))
        self._device.clwb(addr, hi - lo + 1)

    # ------------------------------------------------------------------ #
    # Pool machinery
    # ------------------------------------------------------------------ #

    @property
    def pool_pages(self) -> int:
        return self._pool_pages

    def _pool(self) -> _ThreadPool:
        pool = getattr(self._tl, "pool", None)
        if pool is None:
            pool = _ThreadPool()
            with self._pools_lock:
                self._pools.append(pool)
            self._tl.pool = pool
        return pool

    def _all_pools(self) -> List[_ThreadPool]:
        with self._pools_lock:
            return list(self._pools)

    def _take_free_locked(self, want: int) -> Tuple[List[int], int, int]:
        """Mark up to ``want`` free pages allocated in the DRAM shadow.

        Byte-granularity scan from the refill cursor: fully-allocated 0xFF
        bytes are skipped without touching individual bits, and first-fit
        keeps the result contiguous on fresh volumes.  Returns the pages and
        the dirty byte range ``(lo, hi)`` (``lo == -1`` when nothing found).
        """
        bits = self._bits
        nbytes = len(bits)
        page_count = self._geom.page_count
        pages: List[int] = []
        lo = hi = -1
        bi = self._hint_byte
        for _ in range(nbytes):
            if len(pages) >= want:
                break
            b = bits[bi]
            if b != 0xFF:
                base = bi << 3
                for bit in range(8):
                    if not (b >> bit) & 1:
                        page_no = base + bit + 1
                        if page_no > page_count:
                            break
                        b |= 1 << bit
                        pages.append(page_no)
                        if len(pages) >= want:
                            break
                bits[bi] = b
                if lo < 0:
                    lo = hi = bi
                else:
                    lo = min(lo, bi)
                    hi = max(hi, bi)
            if len(pages) >= want:
                break  # this byte may still have free bits; stay on it
            bi = (bi + 1) % nbytes
        self._hint_byte = bi
        self._free_count -= len(pages)
        return pages, lo, hi

    def _refill(self, want: int, take: int) -> List[int]:
        """Reserve up to ``want`` pages from the shared bitmap; the caller
        hands the first ``take`` of them out and pools the rest.

        One lock acquisition and one fence for the whole batch: the batched
        bitmap write-back and the reservation tag of every page that will be
        *pooled* are queued, then a single ``sfence`` makes them durable
        together.  The pages handed straight out get no tag: their caller
        writes them before it links them, and until then they are a plain
        allocated-but-unlinked page, which ``rebuild`` reclaims.
        """
        with self._lock:
            pages, lo, hi = self._take_free_locked(want)
            if pages:
                self._write_bitmap_range(lo, hi)
                for page_no in pages[take:]:
                    off = self._geom.page_off(page_no)
                    self._device.store(off, RESERVATION_TAG)
                    self._device.clwb(off, len(RESERVATION_TAG))
                self._device.sfence()
        with self._acct_lock:
            self.stats.lock_acquires += 1
            if pages:
                self.stats.pool_refills += 1
                self.stats.refill_pages += len(pages)
        return pages

    @staticmethod
    def _take_pooled(pool: _ThreadPool, count: int,
                     log: bool = False) -> List[int]:
        """Pop up to ``count`` pages off the front of ``pool`` — with
        ``log``, off its kept log pages first."""
        with pool.lock:
            pages: List[int] = []
            for src in ((pool.log, pool.pages) if log else (pool.pages,)):
                got = src[:count - len(pages)]
                del src[:len(got)]
                pages += got
        return pages

    def _steal(self, own: _ThreadPool) -> Optional[int]:
        """Under space pressure, take a reserved page from a foreign pool,
        or one of the caller's own kept log pages."""
        for pool in self._all_pools():
            with pool.lock:
                src = pool.log if pool is own else (pool.pages or pool.log)
                if src:
                    page = src.pop(0)
                    with self._acct_lock:
                        self.stats.steals += 1
                    return page
        return None

    def _clear_bits(self, pages: Sequence[int]) -> None:
        """Clear the bits of ``pages``: one lock, one store and one ``clwb``
        per run of dirty bitmap bytes, no fence (the caller's rides them).

        Every page must be allocated and named once, or the batch is refused
        with :class:`DoubleFree` before any bit changes.  The pages leave
        the handed-out set under the same lock.  A run is a span of
        *consecutive* dirty bytes, so the clean bytes between two distant
        runs are never written: a batch stores at most one byte per page.
        """
        if not pages:
            return
        with self._lock:
            bits = self._bits
            count, seen = self._geom.page_count, set()
            for page_no in pages:
                idx = page_no - 1
                if page_no in seen or not (1 <= page_no <= count
                                           and bits[idx >> 3] >> (idx & 7) & 1):
                    raise DoubleFree(f"double free of page {page_no}")
                seen.add(page_no)
            dirty = set()
            for page_no in pages:
                idx = page_no - 1
                bits[idx >> 3] &= ~(1 << (idx & 7))
                dirty.add(idx >> 3)
            order = sorted(dirty)
            lo = prev = order[0]
            for byte_off in order[1:]:
                if byte_off != prev + 1:
                    self._write_bitmap_range(lo, prev)
                    lo = byte_off
                prev = byte_off
            self._write_bitmap_range(lo, prev)
            self._free_count += len(pages)
            # Before ``_lock`` goes: once it does, another thread may be
            # handed one of these pages, and its accounting must stand.
            with self._acct_lock:
                self._handed_out.difference_update(pages)
                self.stats.lock_acquires += 1

    def _zero_pages(self, pages: List[int]) -> None:
        """Durably zero pages: one store + write-back per contiguous run,
        one fence for everything."""
        run_start = None
        run_len = 0
        runs: List[Tuple[int, int]] = []
        for page_no in pages:
            if run_start is not None and page_no == run_start + run_len:
                run_len += 1
                continue
            if run_start is not None:
                runs.append((run_start, run_len))
            run_start, run_len = page_no, 1
        if run_start is not None:
            runs.append((run_start, run_len))
        for start, count in runs:
            # Consecutive page numbers are physically contiguous only within
            # a stripe unit; split each logical run at unit boundaries.
            for phys_start, phys_count in self._geom.extent_runs(start, count):
                off = self._geom.page_off(phys_start)
                self._device.store(off, _ZERO_PAGE * phys_count)
                self._device.clwb(off, phys_count * PAGE_SIZE)
        self._device.sfence()

    # ------------------------------------------------------------------ #
    # Allocation API
    # ------------------------------------------------------------------ #

    def alloc(self, zero: bool = True) -> int:
        """Allocate one page; returns its 1-based page number."""
        pool = self._pool()
        with pool.lock:
            page = pool.pages.pop(0) if pool.pages else None
        hit = page is not None
        if page is None:
            batch = self._refill(self._pool_pages, 1)
            if batch:
                page = batch[0]
                if len(batch) > 1:
                    with pool.lock:
                        pool.pages.extend(batch[1:])
            else:
                page = self._steal(pool)
                if page is None:
                    raise NoSpace("no free pages")
        with self._acct_lock:
            self._handed_out.add(page)
            self.stats.allocs += 1
            if hit:
                self.stats.pool_hits += 1
        if zero:
            # Zero durably (store + fence): freshly allocated pages must not
            # contribute stale crash states (this also erases the tag).
            self._zero_pages([page])
        return page

    def alloc_many(self, count: int, zero: bool = True, *,
                   log: bool = False) -> List[int]:
        """Allocate ``count`` pages, contiguous when the bitmap allows.

        A small request (fewer than ``pool_pages``) is served from the pool
        first (its pages are sorted, so a batch refill's run survives) —
        with ``log``, from the log pages the thread's last checkpoint kept
        (:meth:`repool`) before the rest — then
        one refill covers the remainder and pools the rest of its batch.  An
        extent (``pool_pages`` or more) comes from the bitmap in one refill
        of exactly ``count`` pages, which pools and tags nothing and leaves
        the pool as it was.  A shortfall the bitmap cannot cover is taken
        from the caller's own pool, then from foreign pools.  If even that
        is short, the batch is rolled back — freshly set bits cleared,
        reserved pages returned to the caller's pool — before
        :class:`~repro.errors.NoSpace` propagates: no page leaks and
        ``free_pages()`` is unchanged.
        """
        if count <= 0:
            return []
        pool = self._pool()
        small = count < self._pool_pages
        reserved = self._take_pooled(pool, count, log) if small else []
        need = count - len(reserved)
        fresh: List[int] = []
        if need:
            # An extent's refill is exactly its size: nothing left to pool.
            batch = self._refill(max(need, self._pool_pages), need)
            fresh = batch[:need]
            if len(batch) > need:
                with pool.lock:
                    pool.pages.extend(batch[need:])
        short = count - len(reserved) - len(fresh)
        if short:  # the refill came up short: what the pool still holds
            reserved += self._take_pooled(pool, short, True)
        hits = len(reserved)
        while len(reserved) + len(fresh) < count:
            page = self._steal(pool)
            if page is None:
                self._clear_bits(fresh)  # roll back the partial batch
                with pool.lock:
                    pool.pages[:0] = reserved
                raise NoSpace(f"no free pages ({len(reserved) + len(fresh)}/"
                              f"{count} rolled back)")
            reserved.append(page)
        got = reserved + fresh if small else fresh + reserved
        with self._acct_lock:
            self._handed_out.update(got)
            self.stats.allocs += count
            self.stats.pool_hits += hits
        if zero:
            self._zero_pages(got)
        return got

    def tag_for_pool(self, pages: Sequence[int]) -> List[int]:
        """The first of the handed-out ``pages`` the calling thread's kept
        log pages have room for (up to ``pool_pages`` of them), each
        stamped with :data:`RESERVATION_TAG` — a store and a ``clwb`` per
        page, no fence.  The caller fences, then gives them to
        :meth:`repool`."""
        room = self._pool_pages - len(self._pool().log)
        kept = list(pages[:max(room, 0)])
        device, geom = self._device, self._geom
        for page_no in kept:
            off = geom.page_off(page_no)
            device.store(off, RESERVATION_TAG)
            device.clwb(off, len(RESERVATION_TAG))
        return kept

    def repool(self, pages: Sequence[int]) -> None:
        """Keep handed-out ``pages``, tagged by :meth:`tag_for_pool` and
        fenced since, in the calling thread's pool for its next log, in
        order and ahead of any kept before: their bits stay set, so the
        next ``alloc_many(..., log=True)`` draws the same pages again with
        no bitmap store and no refill, whatever other small allocations
        the thread made in between.  Until then each is a tagged
        reservation, as a refill's pooled pages are."""
        if not pages:
            return
        with self._acct_lock:
            self._handed_out.difference_update(pages)
        pool = self._pool()
        with pool.lock:
            pool.log[:0] = pages

    def free(self, *pages: int) -> None:
        """Return handed-out pages: one lock per call, and no fence.

        The whole batch is checked first; a page that is not allocated, or
        is named twice, raises :class:`~repro.errors.DoubleFree` and leaves
        every bit as it was.  Callers unmap and fence the pages before they
        free them, so until the caller's next fence makes the clears
        durable a crash leaves only bits set on unreachable pages: a leak
        that ``rebuild`` reclaims at mount.
        """
        if not pages:
            return
        self._clear_bits(pages)
        with self._acct_lock:
            self.stats.frees += len(pages)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_allocated(self, page_no: int) -> bool:
        """Bitmap truth: set for handed-out *and* pool-reserved pages."""
        with self._lock:
            return self._test(page_no)

    def is_handed_out(self, page_no: int) -> bool:
        """Handed out to a caller: allocated, and not a pool reservation."""
        with self._acct_lock:
            return page_no in self._handed_out

    def free_pages(self) -> int:
        """Pages available for allocation, O(1): the cached bitmap-free
        count plus every pool's reserve (reserved-but-unlinked pages are
        still *available* — they are handed out before the bitmap is
        scanned again)."""
        with self._lock:
            free = self._free_count
        for pool in self._all_pools():
            with pool.lock:
                free += len(pool.pages) + len(pool.log)
        return free

    def allocated_set(self) -> Set[int]:
        """Pages handed out to callers (excludes pool reservations), O(size)."""
        with self._acct_lock:
            return set(self._handed_out)

    def pooled_pages(self) -> Set[int]:
        """Pages currently reserved in thread pools (tests / introspection)."""
        out: Set[int] = set()
        for pool in self._all_pools():
            with pool.lock:
                out.update(pool.pages, pool.log)
        return out

    # ------------------------------------------------------------------ #
    # Drain / rebuild
    # ------------------------------------------------------------------ #

    def drain_pools(self) -> int:
        """Return every pool's reserve to the bitmap (one batched persist).

        Called on quiesce/release so an orderly shutdown leaves no reserved
        bits behind, durably: this fences the clears itself.  Returns the
        number of pages drained.
        """
        drained: List[int] = []
        for pool in self._all_pools():
            with pool.lock:
                drained += pool.pages + pool.log
                pool.pages.clear()
                pool.log.clear()
        if drained:
            self._clear_bits(drained)
            self._device.sfence()
        with self._acct_lock:
            self.stats.drained_pages += len(drained)
        return len(drained)

    def rebuild(self, reachable: Iterable[int]) -> int:
        """Reset the bitmap to exactly ``reachable``; returns pages reclaimed.

        The bitmap repair of fsck and mount alike (``Repairer._settle``):
        pages that were allocated (bit persisted) but never linked into any
        inode before the crash — including warm pool reservations — are
        reclaimed here.  Every pool is emptied: its reservations are no
        longer backed by bitmap bits.  The last byte's bits past the last
        page are no page's: they stay as they are, for fsck's
        ``stripe-orphan``.
        """
        keep = set(reachable)
        with self._lock:
            for pool in self._all_pools():
                with pool.lock:
                    pool.pages.clear()
                    pool.log.clear()
            before = self._popcount()
            past = self._bits[-1] & ~((1 << (self._geom.page_count & 7 or 8)) - 1)
            self._bits = bytearray(self._bitmap_bytes())
            self._bits[-1] = past
            for page_no in keep:
                idx = page_no - 1
                self._bits[idx >> 3] |= 1 << (idx & 7)
            self._device.store(self._geom.bitmap_off, bytes(self._bits))
            self._device.persist(self._geom.bitmap_off, len(self._bits))
            after = len(keep)
            self._free_count = self._geom.page_count - after
            self._hint_byte = 0
        with self._acct_lock:
            self._handed_out = set(keep)
        return before - after - bin(past).count("1")
