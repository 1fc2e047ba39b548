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
whole batch.  Every reserved page is stamped with :data:`RESERVATION_TAG`
in its first 8 bytes under that same fence, so fsck can tell a warm-pool
reservation apart from a genuinely leaked page.

The crash story stays leak-only: pooled pages have their bits durably set
but are linked to no inode, exactly like a page allocated-but-unlinked by
the seed allocator.  ``rebuild`` (mount) reclaims them; ``drain_pools``
(quiesce/shutdown) returns them with one batched persist; fsck classifies
them as advisory ``page-reserved`` findings and ``--repair`` clears them.

``pool_pages`` is the refill size.  The kernel controller runs with
:data:`DEFAULT_POOL_PAGES`; the fsck repairer and injectors pass ``1``, so a
refill hands out everything it reserves and nothing tagged is left behind
on the volume they are cleaning or corrupting.  The seed allocator (global
lock, one bitmap persist and one durable zero *per page*) survives only as
its measured costs, ``repro.experiments.SEED_ALLOC`` and
``SEED_PWRITE_1MIB``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.errors import NoSpace
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry

#: Pages reserved per pool refill when the caller does not choose.
DEFAULT_POOL_PAGES = 64

#: Stamp written into the first 8 bytes of every pool-reserved page, under
#: the refill's fence.  Hand-out always overwrites it (durable zeroing, page
#: header init, or a full data overwrite), so a page carrying the tag is by
#: construction reserved-but-unlinked — fsck's ``page-reserved`` class.
RESERVATION_TAG = b"ARKPOOL\0"

_ZERO_PAGE = b"\0" * PAGE_SIZE


@dataclass
class AllocStats:
    """Operation counters (also published as ``alloc.*`` obs metrics)."""

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

    __slots__ = ("lock", "pages")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pages: List[int] = []


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
        self._handed_out: Set[int] = {
            p for p in range(1, geom.page_count + 1) if self._test(p)
        }
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

    def _set_bit_locked(self, page_no: int, value: bool, persist: bool = True) -> None:
        """Flip one shadow bit and write its bitmap byte back (shared lock held)."""
        idx = page_no - 1
        byte_off = idx >> 3
        if value:
            self._bits[byte_off] |= 1 << (idx & 7)
        else:
            self._bits[byte_off] &= ~(1 << (idx & 7))
        addr = self._geom.bitmap_off + byte_off
        self._device.store(addr, bytes([self._bits[byte_off]]))
        if persist:
            self._device.persist(addr, 1)

    def _set_bit(self, page_no: int, value: bool, persist: bool = True) -> None:
        """Kernel-privileged bit flip (corruption-resolution rollback): keeps
        the cached free count, the hand-out set and the pools coherent."""
        with self._lock:
            was = self._test(page_no)
            self._set_bit_locked(page_no, value, persist)
            if value and not was:
                self._free_count -= 1
            elif not value and was:
                self._free_count += 1
            if value:
                # A resurrected page must not sit in any thread's pool.
                for pool in self._all_pools():
                    with pool.lock:
                        if page_no in pool.pages:
                            pool.pages.remove(page_no)
        with self._acct_lock:
            if value:
                self._handed_out.add(page_no)
            else:
                self._handed_out.discard(page_no)

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

    def _refill(self, want: int) -> List[int]:
        """Reserve up to ``want`` pages from the shared bitmap.

        One lock acquisition and one fence for the whole batch: the batched
        bitmap write-back and every page's reservation tag are queued, then
        a single ``sfence`` makes bits and tags durable together.
        """
        with self._lock:
            pages, lo, hi = self._take_free_locked(want)
            if pages:
                self._write_bitmap_range(lo, hi)
                for page_no in pages:
                    off = self._geom.page_off(page_no)
                    self._device.store(off, RESERVATION_TAG)
                    self._device.clwb(off, len(RESERVATION_TAG))
                self._device.sfence()
        with self._acct_lock:
            self.stats.lock_acquires += 1
            if pages:
                self.stats.pool_refills += 1
                self.stats.refill_pages += len(pages)
        obs.count("alloc.lock_acquires")
        if pages:
            obs.count("alloc.pool_refills")
            obs.count("alloc.refill_pages", len(pages))
            pipe = obs.pipeline_profile("alloc")
            if pipe is not None:
                from repro.perf.costmodel import COST

                # Per-thread pools are the "workers" of this pipeline: each
                # refill charges its modeled in-lock time to the refilling
                # thread, so the critical path is the busiest pool.
                ns = COST.alloc_refill_time(len(pages))
                worker = threading.current_thread().name
                pipe.charge(worker, "refill", ns)
                pipe.add_worker_total(worker, ns)
                obs.charge(ns, "alloc.refill")
        return pages

    def _steal(self, own: _ThreadPool) -> Optional[int]:
        """Under space pressure, take a reserved page from a foreign pool."""
        for pool in self._all_pools():
            if pool is own:
                continue
            with pool.lock:
                if pool.pages:
                    page = pool.pages.pop(0)
                    with self._acct_lock:
                        self.stats.steals += 1
                    return page
        return None

    def _release_pages(self, pages: List[int]) -> None:
        """Return reserved/rolled-back pages to the bitmap: clear their bits
        with one batched write-back and one fence."""
        if not pages:
            return
        with self._lock:
            lo = hi = -1
            for page_no in pages:
                idx = page_no - 1
                byte_off = idx >> 3
                self._bits[byte_off] &= ~(1 << (idx & 7))
                if lo < 0:
                    lo = hi = byte_off
                else:
                    lo = min(lo, byte_off)
                    hi = max(hi, byte_off)
            self._write_bitmap_range(lo, hi)
            self._device.sfence()
            self._free_count += len(pages)
        with self._acct_lock:
            self.stats.lock_acquires += 1
        obs.count("alloc.lock_acquires")

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
            batch = self._refill(self._pool_pages)
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
        if hit:
            obs.count("alloc.pool_hits")
        if zero:
            # Zero durably (store + fence): freshly allocated pages must not
            # contribute stale crash states (this also erases the tag).
            self._zero_pages([page])
        return page

    def alloc_many(self, count: int, zero: bool = True) -> List[int]:
        """Allocate ``count`` pages, contiguous when the bitmap allows.

        The pool is drained first (its pages are sorted, so a batch refill's
        run survives), then one refill covers the remainder.  On mid-batch
        exhaustion the partial batch is rolled back (freed) before
        :class:`~repro.errors.NoSpace` propagates — no pages leak.
        """
        if count <= 0:
            return []
        pool = self._pool()
        with pool.lock:
            got = pool.pages[:count]
            del pool.pages[:count]
        hits = len(got)
        if len(got) < count:
            need = count - len(got)
            batch = self._refill(max(need, self._pool_pages))
            got.extend(batch[:need])
            if len(batch) > need:
                with pool.lock:
                    pool.pages.extend(batch[need:])
        while len(got) < count:
            page = self._steal(pool)
            if page is None:
                self._release_pages(got)  # roll back the partial batch
                raise NoSpace(f"no free pages ({len(got)}/{count} rolled back)")
            got.append(page)
        with self._acct_lock:
            self._handed_out.update(got)
            self.stats.allocs += count
            self.stats.pool_hits += hits
        if hits:
            obs.count("alloc.pool_hits", hits)
        if zero:
            self._zero_pages(got)
        return got

    def free(self, page_no: int) -> None:
        with self._lock:
            if not self._test(page_no):
                raise ValueError(f"double free of page {page_no}")
            self._set_bit_locked(page_no, False)
            self._free_count += 1
        with self._acct_lock:
            self._handed_out.discard(page_no)
            self.stats.frees += 1
            self.stats.lock_acquires += 1
        obs.count("alloc.lock_acquires")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_allocated(self, page_no: int) -> bool:
        """Bitmap truth: set for handed-out *and* pool-reserved pages."""
        with self._lock:
            return self._test(page_no)

    def free_pages(self) -> int:
        """Pages available for allocation, O(1): the cached bitmap-free
        count plus every pool's reserve (reserved-but-unlinked pages are
        still *available* — they are handed out before the bitmap is
        scanned again)."""
        with self._lock:
            free = self._free_count
        for pool in self._all_pools():
            with pool.lock:
                free += len(pool.pages)
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
                out.update(pool.pages)
        return out

    # ------------------------------------------------------------------ #
    # Drain / rebuild
    # ------------------------------------------------------------------ #

    def drain_pools(self) -> int:
        """Return every pool's reserve to the bitmap (one batched persist).

        Called on quiesce/release so an orderly shutdown leaves no reserved
        bits behind; returns the number of pages drained.
        """
        drained: List[int] = []
        for pool in self._all_pools():
            with pool.lock:
                drained.extend(pool.pages)
                pool.pages.clear()
        self._release_pages(drained)
        with self._acct_lock:
            self.stats.drained_pages += len(drained)
        if drained:
            obs.count("alloc.drained_pages", len(drained))
        return len(drained)

    def rebuild(self, reachable: Iterable[int]) -> int:
        """Reset the bitmap to exactly ``reachable``; returns pages reclaimed.

        Run during recovery: pages that were allocated (bit persisted) but
        never linked into any inode before the crash — including warm pool
        reservations — are reclaimed here.  Every pool is emptied: its
        reservations are no longer backed by bitmap bits.
        """
        keep = set(reachable)
        with self._lock:
            for pool in self._all_pools():
                with pool.lock:
                    pool.pages.clear()
            before = self._popcount()
            self._bits = bytearray(self._bitmap_bytes())
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
        return before - after
