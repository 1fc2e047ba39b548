"""The simulated persistent-memory device.

The device keeps one flat byte buffer, ``volatile``: what a running CPU
observes, updated in place by every ``store`` and sliced through a
``memoryview`` by every ``load``, so a load copies its bytes once and an
untracked store copies the caller's bytes once.

A *created* device's buffer is an anonymous private mapping, so its memory
is committed by use: the OS zero-fills a page the first time it is touched,
and capacity the volume never reaches costs nothing — as PM mapped into a
LibFS is never initialised whole.  A device *booted* from an image keeps a
``bytearray`` copy of it instead: that is the image's one copy, and the
crash explorer boots thousands of small images, which the heap serves from
recycled pages with no fault at all.

What survives a crash for sure is not kept as a second image.  A tracked
device logs the store *runs* not yet fenced — one entry per ``store`` call:
sequence number, address, the bytes the store overwrote (its one extra
copy) and the cache-line intervals of it still pending — plus the ``clwb``
ranges queued since the last fence, each stamped with the sequence number it
was issued at.  ``sfence`` trims each queued range off the pending lines of
every run *older* than its stamp and drops the runs left empty; it copies
nothing, since the new bytes are already in the buffer.  A store issued
after the ``clwb`` is newer than the stamp and stays pending.  This is
BilbyFs's "ordered list of pending updates applied at ``sync()``" with
``sfence`` as the sync, kept as an undo log: a tracked store, load, flush or
fence costs a few slice operations, not a Python loop over 64-byte lines.

A tracked ``ntstore`` is one step: it checks its range, splits a striped
range once, charges every counter ``store`` + ``clwb`` would, and under one
lock appends its run together with the write-back range that covers it.  A
run is a plain tuple built without a constructor frame.  The log also keeps
one counter, ``_tail``: how many of its newest runs no later ``clwb`` is
known to cover whole.  ``store`` adds its run to that tail; a ``clwb`` whose
range holds every run of the tail empties it; an ``ntstore`` covers its own
run, so it joins only a tail already open.  When the tail is empty at a
fence, every pending run is covered by a range stamped after it, so the
fence drops the whole log without walking it — the walk would drop every
run too.  Otherwise it walks as it always has, and the runs it keeps are
the new tail.

Crash states are still per cache line: a crash may persist, for each line
independently, any content it has held since its durability floor (hardware
may have evicted it at any point).  The pending runs covering a line are the
newest that ever covered it (a fence writes back every run older than a
stamp), so undoing them newest first walks the line back through each
content it held, down to its floor: the version lists — floor first, one
version per pending run, equal or not — are a pure function of the buffer
and the log.  They are split out only when a crash or durable image is asked
for and cached until the next store or fence, which gives exactly the state
space a per-line history kept on every store would; an image is one join of
the buffer's clean stretches and each dirty line's chosen version.

A striped volume is the same device with ``devices`` members: member ``d``
owns bytes ``[d*dev_size, (d+1)*dev_size)`` of the one flat address space,
so data, the run log and crash-line numbering do not change at all.  Members
are counter attribution only: an access is counted once per member it
touches, in the total and in that member's :class:`Member` record, and a
fence is charged to every member stored to or flushed since the last one —
the functional evidence of the striped fan-out.  Where data lands is
:class:`~repro.pm.layout.Geometry`'s business.

Thread safety: a single coarse lock protects the log bookkeeping; a load
takes none, since the buffer is never replaced and a slice copy is atomic
with respect to a store's.  The *logical* races the paper studies
(§4.3–§4.6) live above this layer, in the file-system code, so serialising
the device itself hides nothing relevant.
"""

from __future__ import annotations

import math
import mmap
import random
import threading
from dataclasses import dataclass
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.errors import PersistOrderError, SuperblockCorrupt
from repro.pm.layout import PAGE_SIZE, Superblock

#: Cache-line size in bytes, as on the paper's Cascade Lake machine.
CACHE_LINE = 64


@dataclass
class PMStats:
    """Operation counters, used by tests and by the cost model calibration.

    ``dataclasses.replace(stats)`` is a copy and ``obs.stats_diff(stats,
    copy)`` the delta since; an observed run publishes the device's delta
    and each member's as ``pm.*``.
    """

    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    clwbs: int = 0
    fences: int = 0
    ntstores: int = 0


class Member(NamedTuple):
    """One member of a striped device: its index and the counters of the
    accesses that touched it.  A flat device's one member shares the
    device's own ``stats``."""

    index: int
    stats: PMStats


class _Run(NamedTuple):
    """One unfenced ``store`` call, the ``seq``-th: ``old`` is what the
    bytes at ``addr`` held before it.  The run leaves the log when
    ``pending`` empties."""

    seq: int
    addr: int
    #: a slice of the buffer: ``bytes`` on a created device, a
    #: ``bytearray`` on a booted one.
    old: bytes
    #: half-open cache-line intervals no fence has written back yet.
    pending: List[Tuple[int, int]]


#: builds a :class:`_Run` from a tuple of its fields with no Python frame
#: (a NamedTuple's own ``__new__`` is Python code).
_new_run = tuple.__new__


class PMDevice:
    """Byte-addressable persistent memory with x86-like persistency semantics.

    A device built here starts all zero and maps its buffer: memory is
    committed a page at a time as the device is used.  One booted by
    :meth:`from_image` holds its image's one copy.

    Parameters
    ----------
    size:
        Device capacity in bytes; each member gets ``size / devices``
        rounded up to a cache line (so ``len(device)`` may round up).
    devices:
        Member count.  ``devices > 1`` stripes a volume: every access is
        also counted on the members it touches, and a fence is charged to
        each member stored to or flushed since the last one (counted in
        that member's :class:`Member` record).
    crash_tracking:
        When True (default), each unfenced store logs the bytes it
        overwrote, so that the durable image and every reachable crash
        state can be worked out of the one buffer.  Benchmarks that never
        crash can disable it; a store is then durable as soon as it lands
        (functional behaviour is identical, crash states are unavailable).
    """

    def __init__(self, size: int, *, devices: int = 1,
                 crash_tracking: bool = True):
        self._setup(size, devices, crash_tracking, None)

    def _setup(self, size: int, devices: int, crash_tracking: bool,
               image: Optional[bytes]) -> None:
        """Construct a device whose buffer starts as ``image`` zero-padded
        to the device size, or all zero without one.

        Without an image the buffer is an anonymous ``MAP_PRIVATE``
        mapping: nothing is zero-filled up front, each page is on its
        first touch, and pages never touched are never committed.  Private,
        not shared: shared anonymous memory is shmem-backed, and even
        reading an untouched page of it allocates one.  An image is copied
        once into a ``bytearray`` (padded by under a line per member): the
        crash explorer boots thousands of small images, and the heap serves
        their copies from recycled pages where a fresh mapping would fault
        every page in again."""
        if size <= 0:
            raise ValueError("device size must be positive")
        if devices < 1:
            raise ValueError("a device needs at least one member")
        # Round each member up to a whole number of lines.
        dev_size = -(-size // devices)
        self.dev_size = (dev_size + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE
        self.devices = devices
        self.size = self.dev_size * devices
        #: the device's one buffer — what a running CPU observes; never
        #: replaced, so a view of it stays valid for the device's life.
        if image is None:
            self.volatile = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)
        else:
            self.volatile = bytearray(image)
            if len(image) < self.size:
                self.volatile += bytes(self.size - len(image))
        #: a view of ``volatile`` that loads and stores slice: the one copy
        #: of an access is the one into or out of it.
        self._view = memoryview(self.volatile)
        self.crash_tracking = crash_tracking
        #: the live total of every member's counters.
        self.stats = PMStats()
        self.members: List[Member] = (
            [Member(0, self.stats)] if devices == 1
            else [Member(d, PMStats()) for d in range(devices)])
        #: members stored to or flushed since the last fence (striped
        #: devices only).
        self._dirty: Set[int] = set()
        #: unfenced stores, oldest first, each with the bytes it overwrote.
        self._runs: List[_Run] = []
        self._seq = 0
        #: how many of the newest runs no ``clwb`` since is known to cover
        #: whole; 0 lets a fence drop the log without walking it.
        self._tail = 0
        #: ``(first_line, end_line, seq at issue)`` per ``clwb`` since the
        #: last fence.
        self._queued: List[Tuple[int, int, int]] = []
        #: lazily split per-line versions; None = stale.
        self._versions: Optional[Dict[int, List[bytes]]] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PersistOrderError(
                f"access [{addr}, {addr + size}) outside device of {self.size} bytes"
            )

    def _pieces(self, addr: int, size: int) -> Sequence[Tuple[int, int]]:
        """``(member, nbytes)`` for every member the in-range access
        ``[addr, addr+size)`` touches; a zero-byte access touches one."""
        d, local = divmod(addr, self.dev_size)
        if local + size <= self.dev_size and d < self.devices:
            return ((d, size),)  # the common case, kept cheap
        d = min(d, self.devices - 1)
        pieces, end = [], addr + size
        while True:
            hi = min(end, (d + 1) * self.dev_size)
            pieces.append((d, hi - addr))
            if hi >= end:
                return pieces
            addr, d = hi, d + 1

    def _count_load(self, addr: int, size: int) -> None:
        """Range-check one load and count it, once per member it touches."""
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)  # raises; inline, loads are hot
        if self.devices == 1:
            self.stats.loads += 1
            self.stats.bytes_loaded += size
        else:
            pieces = self._pieces(addr, size)
            self.stats.loads += len(pieces)
            self.stats.bytes_loaded += size
            for d, n in pieces:
                st = self.members[d].stats
                st.loads += 1
                st.bytes_loaded += n

    def load(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of the current *volatile* view at ``addr``.

        The bytes are copied once, out of a view of the device's buffer, and
        belong to the caller: no later store changes them.  Tracked or not,
        a load takes no lock: the buffer is never replaced.
        """
        self._count_load(addr, size)
        return bytes(self._view[addr : addr + size])

    def store(self, addr: int, data: bytes) -> None:
        """CPU store: updates the volatile view only.

        A store spanning multiple cache lines adds one new version to each
        affected line (so a crash may tear it at line granularity, as real
        hardware can).  A store within a single line is recorded as one
        version: we model stores up to 64 B as single-line atomic, which is
        slightly stronger than the hardware's 8/16-byte guarantee; code that
        relies on hardware atomicity uses :meth:`atomic_store`, which enforces
        the real constraint.

        ``data`` may be any bytes-like object (a ``memoryview`` slice of the
        caller's buffer, say), and the caller may reuse it as soon as this
        returns: it is copied straight into the buffer.  A tracked device
        first copies out the bytes it overwrites, for its run log.
        """
        size = len(data)
        if addr < 0 or addr + size > self.size:
            self._check_range(addr, size)  # raises; inline, stores are hot
        if self.devices == 1:
            self.stats.stores += 1
            self.stats.bytes_stored += size
        else:
            pieces = self._pieces(addr, size)
            self.stats.stores += len(pieces)
            self.stats.bytes_stored += size
            for d, n in pieces:
                self._dirty.add(d)
                st = self.members[d].stats
                st.stores += 1
                st.bytes_stored += n
        if not size:
            return
        view = self._view
        if not self.crash_tracking:
            view[addr : addr + size] = data
            return
        lines = (addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)
        lock = self._lock
        lock.acquire()  # not ``with``: its exit call is dear on this hot path
        try:
            self._runs.append(_new_run(_Run, (  # a slice: the one copy out
                self._seq, addr, self.volatile[addr : addr + size], [lines])))
            view[addr : addr + size] = data
            self._seq += 1
            self._tail += 1
            self._versions = None
        finally:
            lock.release()

    def atomic_store(self, addr: int, data: bytes) -> None:
        """A hardware-atomic store: 1/2/4/8/16 bytes, naturally aligned.

        ArckFS's commit markers rely on such stores never being torn; the
        constructor-time checks here keep our simulation honest about it.
        """
        n = len(data)
        if n not in (1, 2, 4, 8, 16):
            raise PersistOrderError(f"atomic store of {n} bytes is not supported")
        if addr % n != 0:
            raise PersistOrderError(f"atomic store at {addr} is not {n}-byte aligned")
        self.store(addr, data)

    # ------------------------------------------------------------------ #
    # Persistence primitives
    # ------------------------------------------------------------------ #

    def clwb(self, addr: int, size: int = 1) -> None:
        """Queue write-back of every cache line overlapping ``[addr, addr+size)``.

        The *current* content of each line is what the next ``sfence``
        guarantees durable; later stores to the same line are NOT covered.
        """
        end = addr + (size if size > 0 else 1)
        if addr < 0 or end > self.size:
            self._check_range(addr, end - addr)  # raises
        first = addr // CACHE_LINE
        last = (end - 1) // CACHE_LINE
        self.stats.clwbs += last - first + 1
        if self.devices > 1:
            span = (last - first + 1) * CACHE_LINE
            for d, n in self._pieces(first * CACHE_LINE, span):
                self._dirty.add(d)
                self.members[d].stats.clwbs += n // CACHE_LINE
        if not self.crash_tracking:
            return
        lock = self._lock
        lock.acquire()
        try:
            runs = self._runs
            if runs:
                self._queued.append((first, last + 1, self._seq))
                tail = self._tail
                if tail == 1:  # the usual case: a store, then its clwb
                    pending = runs[-1].pending
                    if first <= pending[0][0] and pending[-1][1] <= last + 1:
                        self._tail = 0
                elif tail and all(first <= run.pending[0][0]
                                  and run.pending[-1][1] <= last + 1
                                  for run in runs[-tail:]):
                    self._tail = 0
        finally:
            lock.release()

    def sfence(self) -> None:
        """Complete all queued write-backs; they are durable from here on.

        Nothing is copied: the queued lines come off the pending lines of
        every run older than the ``clwb`` that queued them, and a run with
        nothing left pending is dropped, which bounds memory use.  With no
        run left in the tail of runs no ``clwb`` covers, every run goes at
        once, unwalked.

        A striped device charges one fence to every member stored to or
        flushed since the last fence — member 0 for an idle one, as a flat
        device charges itself.
        """
        if self.devices == 1:
            self.stats.fences += 1
        else:
            for d in sorted(self._dirty) or [0]:
                self.stats.fences += 1
                self.members[d].stats.fences += 1
            self._dirty.clear()
        # An empty queue needs no lock: a clwb racing this fence is after it.
        if not self.crash_tracking or not self._queued:
            return
        lock = self._lock
        lock.acquire()
        try:
            queued = self._queued
            self._queued, self._versions = [], None
            if not self._tail:
                self._runs = []  # each run is covered by a later range
            elif queued:
                self._runs = self._write_back(self._runs, queued)
                self._tail = len(self._runs)
        finally:
            lock.release()

    @staticmethod
    def _write_back(runs: List[_Run],
                    queued: List[Tuple[int, int, int]]) -> List[_Run]:
        """The runs still pending once every queued ``(lo, hi, seq)`` range
        is written back.  A range covers the runs older than its ``seq``, so
        a run starts at the first range stamped after it — one index walks
        the stamps alongside the runs, since neither ever decreases — and
        stops once nothing of it is pending."""
        kept: List[_Run] = []
        n, first = len(queued), 0
        for k, run in enumerate(runs):
            while queued[first][2] <= run.seq:
                first += 1
                if first == n:  # stored after every clwb, as is every later run
                    kept += runs[k:]
                    return kept
            pending = run.pending
            lo, hi, _seq = queued[first]
            if lo <= pending[0][0] and pending[-1][1] <= hi:
                continue  # the first range after it covers it: the usual case
            for lo, hi, _seq in queued[first:]:
                rest = []
                for a, b in pending:
                    if b <= lo or hi <= a:
                        rest.append((a, b))
                        continue
                    if a < lo:
                        rest.append((a, lo))
                    if hi < b:
                        rest.append((hi, b))
                pending = rest
                if not pending:
                    break
            else:
                run.pending[:] = pending
                kept.append(run)
        return kept

    def ntstore(self, addr: int, data: bytes) -> None:
        """Non-temporal store: a store whose write-back is already queued.

        Durability still requires a following ``sfence`` (matching movnt +
        sfence on real hardware).  One step, tracked or not: the range is
        checked and a striped one split once, each member is charged its
        store, ntstore and write-backs from that split — what ``store`` +
        ``clwb`` would charge — and a tracked device appends the run and
        the range covering it under one lock.
        """
        size = len(data)
        if addr < 0 or addr + size > self.size:
            self._check_range(addr, size)  # raises
        st = self.stats
        # Member bounds are line-aligned, so no line is split between two.
        lo, hi = addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1
        if self.devices == 1:
            st.stores += 1
            st.ntstores += 1
            st.bytes_stored += size
            if size:
                st.clwbs += hi - lo
        else:
            pieces = self._pieces(addr, size)
            st.stores += len(pieces)
            st.ntstores += len(pieces)
            st.bytes_stored += size
            start = addr
            for d, n in pieces:
                self._dirty.add(d)
                m = self.members[d].stats
                m.stores += 1
                m.ntstores += 1
                m.bytes_stored += n
                if n:
                    lines = (start + n - 1) // CACHE_LINE - start // CACHE_LINE + 1
                    m.clwbs += lines
                    st.clwbs += lines
                start += n
        if not size:
            return
        if not self.crash_tracking:
            self._view[addr : addr + size] = data
            return
        lock = self._lock
        lock.acquire()
        try:
            seq = self._seq
            self._runs.append(_new_run(_Run, (
                seq, addr, self.volatile[addr : addr + size], [(lo, hi)])))
            self._view[addr : addr + size] = data
            self._queued.append((lo, hi, seq + 1))
            self._seq = seq + 1
            if self._tail:  # its own range covers it: it joins an open tail
                self._tail += 1
            self._versions = None
        finally:
            lock.release()

    def persist(self, addr: int, size: int) -> None:
        """Convenience: ``clwb`` the range, then ``sfence``."""
        self.clwb(addr, size)
        self.sfence()

    def drain(self) -> None:
        """Flush and fence every dirty line (used at unmount / test epilogue);
        a striped device fences every member."""
        if not self.crash_tracking:
            self._dirty.clear()
            return
        with self._lock:
            if self._runs:  # every line written back
                self._runs, self._queued, self._versions = [], [], None
                self._tail = 0
        if self.devices > 1:
            self._dirty.update(range(self.devices))
        self.sfence()

    # ------------------------------------------------------------------ #
    # Batched extent I/O (the extent-batched data path)
    # ------------------------------------------------------------------ #

    def ntstore_scatter(self, ops: List[Tuple[int, bytes]]) -> None:
        """Non-temporal-store a batch of ``(addr, data)`` extents.

        Semantically a loop of :meth:`ntstore`, counted as one (each
        member's share lands in its :class:`Member` record), and durability
        still requires the caller's following ``sfence``; each ``data`` may
        be a view of the caller's buffer.
        """
        for addr, data in ops:
            self.ntstore(addr, data)

    def load_gather(self, ops: List[Tuple[int, int]]) -> bytes:
        """Read a batch of ``(addr, nbytes)`` extents as one ``bytes``, in
        submission order.

        Counted exactly as a loop of :meth:`load`; the extents are joined
        straight out of views of the device's buffer, so each byte is copied
        once, and the result belongs to the caller.
        """
        for addr, nbytes in ops:
            self._count_load(addr, nbytes)
        view = self._view
        return b"".join([view[a : a + n] for a, n in ops])

    # ------------------------------------------------------------------ #
    # Crash-state exploration
    # ------------------------------------------------------------------ #

    def _line_versions(self) -> Dict[int, List[bytes]]:
        """The successive contents of every dirty line since its durability
        floor (lock held): ``[0]`` is the floor, ``[-1]`` the buffer's line,
        and each pending run covering the line adds the version it stored.
        Worked out by undoing the pending runs newest first — each restores
        the bytes it overwrote — and kept until the next store or fence."""
        if self._versions is None:
            versions: Dict[int, List[bytes]] = {}
            buf = self.volatile
            for run in reversed(self._runs):
                addr, old = run.addr, run.old
                end = addr + len(old)
                for a, b in run.pending:
                    for lineno in range(a, b):
                        base = lineno * CACHE_LINE
                        line = versions.get(lineno)
                        if line is None:  # a mapping's slice is bytes
                            cur = bytearray(buf[base : base + CACHE_LINE])
                            line = versions[lineno] = [bytes(cur)]
                        else:
                            cur = bytearray(line[-1])
                        lo, hi = max(addr, base), min(end, base + CACHE_LINE)
                        cur[lo - base : hi - base] = old[lo - addr : hi - addr]
                        line.append(bytes(cur))
            for line in versions.values():
                line.reverse()
            self._versions = versions
        return self._versions

    def dirty_lines(self) -> List[int]:
        """Line numbers that currently have non-durable content."""
        with self._lock:
            return sorted(self._line_versions())

    def line_choices(self) -> Dict[int, int]:
        """For each dirty line, how many distinct crash outcomes it has."""
        with self._lock:
            return {lineno: len(line)
                    for lineno, line in self._line_versions().items()}

    def durable_image(self) -> bytes:
        """The guaranteed-durable image: only fenced content, every dirty
        line at its floor."""
        with self._lock:
            return self._image({})

    def volatile_image(self) -> bytes:
        """The full volatile view (what a non-crashing remount would see)."""
        return self.load(0, self.size)

    def crash_image(self, choices: Dict[int, int]) -> bytes:
        """Build one crash image.

        ``choices`` maps line number -> version index to persist for that
        line; dirty lines not mentioned persist their floor content, and
        clean lines have only one.  Version index 0 is the floor; the
        largest index is the newest store.
        """
        with self._lock:
            return self._image(choices)

    def _image(self, choices: Dict[int, int]) -> bytes:
        """One join of the buffer's clean stretches and each dirty line's
        chosen version (lock held): every byte of the image is copied once."""
        view, pieces, pos = self._view, [], 0
        versions = self._line_versions()
        for lineno in sorted(versions):
            line, idx = versions[lineno], choices.get(lineno, 0)
            if not 0 <= idx < len(line):
                raise PersistOrderError(
                    f"line {lineno} has {len(line)} versions; {idx} invalid"
                )
            base = lineno * CACHE_LINE
            pieces += (view[pos:base], line[idx])
            pos = base + CACHE_LINE
        pieces.append(view[pos:])
        return b"".join(pieces)

    def enumerate_crash_images(self, limit: int = 4096) -> Iterator[bytes]:
        """Yield every reachable crash image (product over dirty lines,
        lowest line outermost).

        Raises :class:`PersistOrderError` if the state space exceeds
        ``limit`` — a nudge to place the crash point more precisely.
        """
        choices = self.line_choices()
        total = math.prod(choices.values())
        if total > limit:
            raise PersistOrderError(
                f"{total} crash states exceed limit {limit}; "
                f"dirty lines: {list(choices)[:16]}"
            )
        lines = sorted(choices)
        counts = [choices[ln] for ln in lines]

        def rec(i: int, picked: Dict[int, int]) -> Iterator[bytes]:
            if i == len(lines):
                yield self.crash_image(picked)
                return
            for v in range(counts[i]):
                picked[lines[i]] = v
                yield from rec(i + 1, picked)
            del picked[lines[i]]

        yield from rec(0, {})

    def sample_crash_images(self, n: int, seed: int = 0) -> Iterator[bytes]:
        """Yield ``n`` pseudo-random crash images (for large dirty sets):
        every dirty line's version drawn from ``random.Random(seed)``,
        lines ascending."""
        rng = random.Random(seed)
        choices = self.line_choices()
        lines = sorted(choices)
        for _ in range(n):
            picked = {ln: rng.randrange(choices[ln]) for ln in lines}
            yield self.crash_image(picked)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def from_image(cls, image: bytes, *,
                   crash_tracking: bool = True) -> "PMDevice":
        """Boot a device from a crash (or durable) image — i.e. 'reboot'.

        ``image`` may be any bytes-like object of single bytes; the device
        holds one copy of it, and the caller may reuse it at once.

        The member count is the one a valid superblock records (1 without
        one), so a striped volume's image reboots into its own shape; an
        image that does not split into that many equal, line-aligned
        members of at least a page is :class:`SuperblockCorrupt`.
        """
        devices = 1
        if len(image) >= Superblock.SIZE:
            sb = Superblock.unpack(image[:Superblock.SIZE])
            if sb.valid:
                devices = max(1, sb.devices)
        if devices > 1 and (len(image) % (devices * CACHE_LINE)
                            or len(image) // devices < PAGE_SIZE):
            raise SuperblockCorrupt(
                f"{len(image)}-byte image does not split into {devices} "
                f"equal line-aligned members of at least one page")
        dev = cls.__new__(cls)
        dev._setup(len(image), devices, crash_tracking, image)
        return dev

    def load_image(self, image: bytes) -> None:
        """Reboot in place: the buffer holds ``image`` (zero-padded to the
        device size) and nothing is pending.

        On a mapped buffer the padding past the image's last page is not
        written but given back: the OS zero-fills those pages on their next
        touch, so a small image commits no more than itself."""
        n = len(image)
        self._check_range(0, n)
        tail = -(-n // mmap.PAGESIZE) * mmap.PAGESIZE
        if not isinstance(self.volatile, mmap.mmap):
            tail = self.size  # a bytearray keeps the write
        with self._lock:
            self._view[:n] = image
            self._view[n:tail] = bytes(min(tail, self.size) - n)
            if tail < self.size:
                self.volatile.madvise(mmap.MADV_DONTNEED, tail, self.size - tail)
            self._runs, self._queued, self._versions = [], [], None
            self._tail = 0

    def __len__(self) -> int:
        return self.size
