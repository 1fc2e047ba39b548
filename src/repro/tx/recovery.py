"""Replay and recovery for sealed transaction logs.

One idempotent apply routine, :func:`apply_records`, serves three callers:

* ``Tx.commit`` — the normal apply after sealing, which also keeps the
  before-images :func:`undo` rolls a failed apply back from;
* mount-time recovery (``KernelController.mount``) — a crash after the
  seal but before the checkpoint leaves ``tx_log_head`` published, and
  replaying the sealed log over the partially-applied state must converge
  to exactly the full-transaction state;
* ``fsck --repair`` — a ``tx-torn`` finding on a valid sealed log is
  repaired by mounting and letting this replay run.

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
both (no CRC equals the tag), and :func:`recover` discards them like any
corrupt sealed log: the transaction shows none of its effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.errors import CrashPoint, FSError, NoEntry, SimulatedFault
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
    parse_log,
    read_head,
    retire,
)

#: App id the mount-time replay registers; never visible to applications.
RECOVERY_APP = "@tx-recovery"


@dataclass
class TxRecoveryOutcome:
    """What mount-time transaction recovery did."""

    #: redo records replayed from a sealed, CRC-intact log.
    replayed: int = 0
    #: sealed-but-corrupt logs discarded (pages reclaimed).
    discarded: int = 0


class Before(NamedTuple):
    """What one applied data record changed of a file that predates the
    commit: its size before the record, and the bytes at ``offset`` the
    record overwrote (a ``pwrite``) or cut (a shrinking ``truncate``)."""

    mi: MemInode
    size: int
    offset: int
    data: bytes


#: An applied record and, for a data record, its before-image.
Applied = Tuple[TxRecord, Optional[Before]]


def apply_records(fs, records: Sequence[TxRecord], txid: Optional[int] = None,
                  applied: Optional[List[Applied]] = None) -> None:
    """Apply ``records`` in order through ``fs``, then one fence.

    A commit passes its ``txid``: each record hits the ``tx.apply_op``
    failpoint before it takes effect, the first error propagates (no
    closing fence: the caller rolls back or leaves the log pending), and
    ``applied`` collects the records that took effect before it, each data
    record on a file that predates the commit with its :class:`Before`
    image — read through the MemInode the write goes through, so the
    record resolves its path once.  Mount's replay passes none and keeps
    no images: a record outside the crash model (a hand-edited image, say)
    is counted and skipped, because recovery must still mount; the
    skipped op is visible in the counters and to fsck.
    """
    created: Set[int] = set()  # inodes this commit's records created
    for i, rec in enumerate(records):
        if txid is not None:
            failpoints.hit("tx.apply_op", (txid, i))
        try:
            before = _apply_record(fs, rec, created if applied is not None else None)
        except FSError:
            if txid is not None:
                raise
            obs.count("tx.replay_skipped")
            continue
        if applied is not None:
            applied.append((rec, before))
    fs.kernel.device.sfence()


def _apply_record(fs, rec: TxRecord,
                  created: Optional[Set[int]]) -> Optional[Before]:
    """Apply one redo record through the LibFS surface, idempotently.

    With ``created`` (a commit's apply), a data record on a file no earlier
    record created returns its :class:`Before` image."""
    if rec.op in (TX_PWRITE, TX_TRUNCATE):
        mi = fs._writable_file(paths.parse(rec.path), create=True)
        before = None
        if created is not None and mi.ino not in created:
            # A pwrite's old bytes under it; a truncate's cut tail (an
            # extension reads none).
            n = len(rec.data) if rec.op == TX_PWRITE else mi.size - rec.arg
            before = Before(mi, mi.size, rec.arg, fs._cs(mi).read_file_data(
                mi.pages, mi.size, rec.arg, n))
        if rec.op == TX_PWRITE:
            fs._pwrite(mi, rec.data, rec.arg, sync=False)
        else:
            fs._truncate(mi, rec.arg)
        return before
    if rec.op == TX_CREATE:
        if not fs.exists(rec.path):
            mi = fs._create_file(paths.parse(rec.path), rec.arg or 0o664)
            if created is not None:
                created.add(mi.ino)
    elif rec.op == TX_MKDIR:
        if not fs.exists(rec.path):
            fs.mkdir(rec.path, mode=rec.arg or 0o775)
    elif rec.op == TX_RENAME:
        dst = rec.data.decode("utf-8", "replace")
        if fs.exists(rec.path):
            fs.rename(rec.path, dst)
        elif not fs.exists(dst):
            raise NoEntry(rec.path)
        # else: the rename already applied — nothing to redo.
    elif rec.op == TX_UNLINK:
        if fs.exists(rec.path):
            fs.unlink(rec.path)
    else:
        raise ValueError(f"unknown tx opcode {rec.op}")
    return None


def undo(fs, applied: Sequence[Applied]) -> int:
    """Undo ``applied`` in reverse order; returns how many undos failed.

    A data record's file is put back through the LibFS write path by
    inode — truncated to its old size, then its old bytes written back —
    a created name is unlinked, a rename reversed.  An undo that fails is
    counted and passed over: what it leaves is a state fsck can repair,
    never a torn transaction.  The caller fences before it retires the
    log: until then a crash — a simulated one propagates from here —
    still finds the seal and replays the whole transaction.
    """
    failed = 0
    for rec, before in reversed(applied):
        try:
            if before is not None:
                if before.mi.size != before.size:
                    fs._truncate(before.mi, before.size)
                if before.data:
                    fs._pwrite(before.mi, before.data, before.offset, sync=False)
            elif rec.op == TX_CREATE:
                if fs.exists(rec.path):
                    fs.unlink(rec.path)
            elif rec.op == TX_MKDIR:
                if fs.exists(rec.path):
                    fs.rmdir(rec.path)
            elif rec.op == TX_RENAME:
                dst = rec.data.decode("utf-8", "replace")
                if fs.exists(dst):
                    fs.rename(dst, rec.path)
        except (CrashPoint, SimulatedFault):
            raise  # a simulated machine crash: the seal replays the tx
        except Exception:
            failed += 1
    return failed


def recover(kernel) -> TxRecoveryOutcome:
    """Replay (or discard) the pending transaction log at mount time.

    Called by ``KernelController.mount`` after the structural recovery
    walk; the sealed chain's pages were kept out of the allocator rebuild's
    reclaim so the log is still intact here.  A valid log is replayed
    through a root-privileged internal LibFS and checkpointed; a sealed
    but corrupt log (torn chain, bad CRC, a CRC that is not the seal's
    tag) is discarded — its seal is cleared and its pages are freed.
    Either way only pages the structural walk gave no owner are freed: a
    stale or forged head can reach a live file's data page, whose bytes
    may look like a log page.
    """
    outcome = TxRecoveryOutcome()
    if read_head(kernel.device) == 0:
        return outcome
    log, pages = parse_log(kernel.device, kernel.geom)

    def unowned(chain: List[int]) -> List[int]:
        return [p for p in chain if kernel.alloc.is_allocated(p)
                and p not in kernel.page_owner]

    if log is None:
        retire(kernel.device, kernel.alloc, unowned(pages))
        outcome.discarded = 1
        return outcome

    from repro.libfs.libfs import LibFS  # above the kernel layer; lazy

    with obs.span("tx.replay", category="tx", records=len(log.records)):
        fs = LibFS(kernel, RECOVERY_APP, uid=0)
        try:
            apply_records(fs, log.records)
        finally:
            fs.shutdown()
        retire(kernel.device, kernel.alloc, unowned(log.pages))
    outcome.replayed = len(log.records)
    return outcome
