"""Replay and recovery for sealed transaction logs.

One idempotent apply routine serves three callers:

* ``Tx.commit`` — the normal apply after sealing;
* mount-time recovery (``KernelController.mount``) — a crash after the
  seal but before the checkpoint leaves ``tx_log_head`` published, and
  replaying the sealed log over the partially-applied state must converge
  to exactly the full-transaction state;
* ``fsck --repair`` — a ``tx-torn`` finding on a valid sealed log is
  repaired by mounting and letting this replay run.

Idempotence is why every redo op tolerates "already done": a crash can
land between any two applied ops (or inside one — each LibFS op is
individually crash-consistent under ArckFS+), so replay meets states
where a prefix of the log is already visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import FSError, NoEntry
from repro.tx.log import (
    TX_CREATE,
    TX_MKDIR,
    TX_PWRITE,
    TX_RENAME,
    TX_TRUNCATE,
    TX_UNLINK,
    TxRecord,
    clear_seal,
    parse_log,
    read_head,
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


def apply_record(fs, rec: TxRecord) -> None:
    """Apply one redo record through the LibFS surface, idempotently."""
    if rec.op == TX_CREATE:
        if not fs.exists(rec.path):
            fs.close(fs.creat(rec.path, mode=rec.arg or 0o664))
    elif rec.op == TX_MKDIR:
        if not fs.exists(rec.path):
            fs.mkdir(rec.path, mode=rec.arg or 0o775)
    elif rec.op == TX_PWRITE:
        fd = fs.open(rec.path, create=True)
        try:
            fs.pwrite(fd, rec.data, rec.arg)
            fs.fsync(fd)
        finally:
            fs.close(fd)
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
    elif rec.op == TX_TRUNCATE:
        if not fs.exists(rec.path):
            fs.close(fs.creat(rec.path))
        fs.truncate(rec.path, rec.arg)
    else:
        raise ValueError(f"unknown tx opcode {rec.op}")


def recover(kernel) -> TxRecoveryOutcome:
    """Replay (or discard) the pending transaction log at mount time.

    Called by ``KernelController.mount`` after the structural recovery
    walk; the sealed chain's pages were kept out of the allocator rebuild's
    reclaim so the log is still intact here.  A valid log is replayed
    through a root-privileged internal LibFS and checkpointed; a sealed
    but corrupt log (torn chain, bad CRC) is discarded — its seal is
    cleared and its pages are freed.
    """
    outcome = TxRecoveryOutcome()
    if read_head(kernel.device) == 0:
        return outcome
    log, pages = parse_log(kernel.device, kernel.geom)
    if log is None:
        clear_seal(kernel.device)
        kernel.alloc.free(*filter(kernel.alloc.is_allocated, pages))
        outcome.discarded = 1
        obs.count("tx.recovery_discarded")
        return outcome

    from repro.libfs.libfs import LibFS  # above the kernel layer; lazy

    with obs.span("tx.replay", category="tx", records=len(log.records)):
        fs = LibFS(kernel, RECOVERY_APP, uid=0)
        try:
            for rec in log.records:
                try:
                    apply_record(fs, rec)
                except FSError:
                    # A state outside the crash model (e.g. a hand-edited
                    # image).  Recovery must still mount; the skipped op is
                    # visible in the counters and to fsck.
                    obs.count("tx.replay_skipped")
        finally:
            fs.shutdown()
        clear_seal(kernel.device)
        kernel.alloc.free(*filter(kernel.alloc.is_allocated, log.pages))
    outcome.replayed = len(log.records)
    obs.count("tx.replays")
    obs.count("tx.replayed_ops", len(log.records))
    return outcome
