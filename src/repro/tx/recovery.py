"""Replay and recovery for sealed transaction logs.

One idempotent apply routine, :func:`apply_records`, serves two callers:

* ``Tx.commit`` — the normal apply after sealing, which also keeps the
  inverses :func:`undo` rolls a failed apply back by;
* mount's repair of a ``tx-torn`` finding (``fsck/repair.py``, which
  ``fsck --repair`` reaches by mounting) — a crash after the seal but
  before the checkpoint leaves ``tx_log_head`` published, and replaying
  the sealed log over the partially-applied state must converge to
  exactly the full-transaction state.

Idempotence is why every redo op tolerates "already done": a crash can
land between any two applied ops (or inside one — each LibFS op is
individually crash-consistent under ArckFS+), so replay meets states
where a prefix of the log is already visible.  It is also why the apply
needs only one fence: the sealed log, not the apply, is what a crash
recovers from, so a record that merely overwrites mapped bytes leaves
its data unfenced until the apply's closing fence, which precedes the
checkpoint's seal clear.

A seal is only as good as its tag: the log and the seal share the seal's
fence, so a crash before it can leave a seal on media over a torn log, or
over a stale log on reused pages.  :func:`~repro.tx.log.parse_log` rejects
both (no CRC equals the tag), and mount discards them like any corrupt
sealed log: the transaction shows none of its effects.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.errors import CrashPoint, FSError, NoEntry, NotADir, SimulatedFault
from repro.libfs import paths
from repro.libfs.inode import MemInode
from repro.tx.log import (
    TX_CREATE,
    TX_MKDIR,
    TX_PWRITE,
    TX_RENAME,
    TX_TRUNCATE,
    TX_UNLINK,
    TxRecord,
)


def _identity(fs, comps: Tuple[str, ...]) -> Optional[Tuple[int, int]]:
    """``(ino, gen)`` of what ``comps`` names now; None when nothing."""
    try:
        mi = fs._resolve(comps)
    except (NoEntry, NotADir):
        return None
    return mi.ino, mi.gen


class Before(NamedTuple):
    """A data record on file ``mi``, which predates the commit: its size
    before the record, and the bytes at ``offset`` the record overwrote (a
    ``pwrite``) or cut (a shrinking ``truncate``), put back by inode."""

    mi: MemInode
    size: int
    offset: int
    data: bytes

    def undo(self, fs) -> None:
        if self.mi.size != self.size:
            fs._truncate(self.mi, self.size)
        if self.data:
            fs._pwrite(self.mi, self.data, self.offset, sync=False)


class Created(NamedTuple):
    """A record created the file (:class:`Made`: the directory) ``comps``
    names, inode ``ino`` of generation ``gen``: removed while so named."""

    comps: Tuple[str, ...]
    ino: int
    gen: int

    def undo(self, fs) -> None:
        if _identity(fs, self.comps) == (self.ino, self.gen):
            fs._unlink(self.comps)


class Made(Created):
    __slots__ = ()

    def undo(self, fs) -> None:
        if _identity(fs, self.comps) == (self.ino, self.gen):
            fs._rmdir(self.comps)


class Renamed(NamedTuple):
    """A record moved inode ``ino`` of generation ``gen`` from ``src`` to
    ``dst``: moved back while ``dst`` names it."""

    src: Tuple[str, ...]
    dst: Tuple[str, ...]
    ino: int
    gen: int

    def undo(self, fs) -> None:
        if _identity(fs, self.dst) == (self.ino, self.gen):
            fs._rename(self.dst, self.src)


Inverse = Union[Before, Created, Made, Renamed]


def apply_records(fs, records: Sequence[TxRecord], txid: Optional[int] = None,
                  applied: Optional[List[Optional[Inverse]]] = None) -> None:
    """Apply ``records`` in order through ``fs``, then one fence.

    A commit passes its ``txid``: each record hits the ``tx.apply_op``
    failpoint before it takes effect, the first error propagates (no
    closing fence: the caller rolls back or leaves the log pending), and
    ``applied`` gets one entry per record applied before it: the inverse
    of what it did, None when it did nothing an undo can reverse.  Mount's
    replay passes none and keeps no inverses: a record outside the crash
    model (a hand-edited image, say) is counted and skipped, because
    recovery must still mount; the skipped op is visible in the counters
    and to fsck.
    """
    # The files earlier records created, by (ino, gen): their data records
    # keep no Before image (the file's removal undoes them).
    created = set() if applied is not None else None
    hooks = failpoints.hooks  # a hit only while armed, or counted
    for i, rec in enumerate(records):
        if txid is not None and (hooks or obs.enabled):
            failpoints.hit("tx.apply_op", (txid, i))
        try:
            inverse = _apply_record(fs, rec, created)
        except FSError:
            if txid is not None:
                raise
            obs.count("tx.replay_skipped")
            continue
        if applied is not None:
            applied.append(inverse)
            if type(inverse) is Created:
                created.add((inverse.ino, inverse.gen))
    fs.kernel.device.sfence()


def _apply_record(fs, rec: TxRecord,
                  created: Optional[Set[Tuple[int, int]]]) -> Optional[Inverse]:
    """Apply one redo record, idempotently, and return its inverse; with
    ``created`` (the ``(ino, gen)`` earlier records created), a data record
    on any other file returns its :class:`Before` image, read through the
    inode the write takes.  The record's path parses to the tuple its
    staging parsed (``paths.parse`` is memoized)."""
    comps = paths.parse(rec.path)
    if rec.op in (TX_PWRITE, TX_TRUNCATE):
        try:
            mi, inverse = fs._writable_file(comps), None
        except NoEntry:
            mi = fs._create_file(comps, 0o664)
            inverse = Created(comps, mi.ino, mi.gen)
        if inverse is None and created is not None \
                and (mi.ino, mi.gen) not in created:
            # A pwrite's old bytes under it; a truncate's cut tail (an
            # extension reads none).
            n = len(rec.data) if rec.op == TX_PWRITE else mi.size - rec.arg
            inverse = Before(mi, mi.size, rec.arg, mi.cs.read_file_data(
                mi.pages, mi.size, rec.arg, n))
        if rec.op == TX_PWRITE:
            fs._pwrite(mi, rec.data, rec.arg, sync=False)
        else:
            fs._truncate(mi, rec.arg)
        return inverse
    if rec.op == TX_RENAME:
        dst = paths.parse(rec.data.decode("utf-8", "replace"))
        moved = _identity(fs, comps)
        if moved is not None:
            fs._rename(comps, dst)
            return Renamed(comps, dst, *moved)
        if _identity(fs, dst) is None:
            raise NoEntry(rec.path)
        return None  # the rename already applied: nothing to redo
    if rec.op == TX_UNLINK:
        if _identity(fs, comps) is not None:
            fs._unlink(comps)
        return None
    if rec.op not in (TX_CREATE, TX_MKDIR):
        raise ValueError(f"unknown tx opcode {rec.op}")
    if _identity(fs, comps) is not None:
        return None  # made already, by this record or by another call
    if rec.op == TX_CREATE:
        mi = fs._create_file(comps, rec.arg or 0o664)
        return Created(comps, mi.ino, mi.gen)
    mi = fs._create_dir(comps, rec.arg or 0o775)
    return Made(comps, mi.ino, mi.gen)


def undo(fs, applied: Sequence[Optional[Inverse]]) -> int:
    """Undo ``applied`` in reverse order; returns how many undos failed.

    A failed undo is counted and passed over: it leaves a state fsck can
    repair, never a torn transaction.  The caller fences before it retires
    the log: until then a crash (a simulated one propagates from here)
    still finds the seal and replays the whole transaction.
    """
    failed = 0
    for inverse in reversed(applied):
        try:
            if inverse is not None:
                inverse.undo(fs)
        except (CrashPoint, SimulatedFault):
            raise  # a simulated machine crash: the seal replays the tx
        except Exception:
            failed += 1
    return failed
