"""The transaction manager: buffered multi-file ops, redo-logged commit.

``TxManager`` belongs to one session (LibFS); ``TxManager.begin()`` hands
out :class:`Tx` handles.  Application code never constructs either — the
sanctioned entry point is ``Session.transaction()`` on the ``repro.api``
facade (ruff TID251 enforces this, exactly like the ``KernelController``
ban).

A :class:`Tx` buffers operations in DRAM and validates each against a
staged namespace overlay (tx-local effects layered over the live
filesystem), so conflicts surface at ``tx.create(...)`` time, not at
commit.  Nothing touches PM until :meth:`Tx.commit`:

1. **log** — serialize the ops into a redo log (KV-WAL record framing)
   and stream it into a fresh ``PAGE_KIND_TXLOG`` chain, one store per
   contiguous run of pages, no fence;
2. **seal** — publish the chain head and its tag (the payload's body
   CRC) into the superblock's ``tx_log_head`` with a single 8-byte atomic
   store + fence, the one fence of log and seal.  This is the commit
   point: a crash before it shows *none* of the transaction (a seal that
   got to media ahead of its log fails the tag and is discarded; the
   chain's pages merely leak, and mount reclaims them), a crash after it
   replays *all* of it;
3. **apply** — run the ops through the owning LibFS's no-descriptor
   entry points (each individually crash-consistent; replay converges
   over any partial prefix).  An overwrite of mapped bytes does not
   fence; the apply ends with one fence;
4. **checkpoint** — clear ``tx_log_head`` under one fence, then free the
   log pages (their bit clears ride the next fence).

A commit of overwrites therefore costs three fences.

Commits are serialized volume-wide (one ``tx_log_head``), so exactly one
transaction is ever pending on a device.

:meth:`Tx.prepare` is the optional step 0 for a session that shares its
volume and keeps ownership between operations (the server's wire sessions):
it takes every inode the apply will need *before* the seal, where a
conflict still costs nothing.

Abort before commit discards the buffer — nothing reached PM.  A hard
failure *during* apply rolls the transaction back from the inverses its
apply kept of what each record did: while the apply writes or truncates a
file that predates the commit, it keeps the file's old size and the bytes
the record overwrites or cuts in DRAM; it notes each name a record created
and each rename a record made, by the inode's identity.  The rollback
reverses them in reverse order — a name only while it still names the
inode the apply made or moved — so the volume is left as the commit found
it, names other calls made or moved included.  If an applied ``unlink``
makes logical rollback impossible, the sealed log is left pending instead
(:class:`~repro.errors.TxCommitPending`) and the next mount rolls the
transaction forward.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.errors import (
    CrashPoint,
    Exists,
    InvalidArgument,
    IsADir,
    NoEntry,
    NotADir,
    SimulatedFault,
    TxAborted,
    TxCommitPending,
    TxError,
)
from repro.libfs import paths
from repro.tx.log import (
    TX_CREATE,
    TX_MKDIR,
    TX_PWRITE,
    TX_RENAME,
    TX_TRUNCATE,
    TX_UNLINK,
    TxRecord,
    build_payload,
    payload_tag,
    retire,
    seal,
    write_log,
)
from repro.tx.recovery import Inverse, apply_records, undo

#: Process-wide transaction ids (diagnostic; uniqueness per volume is
#: guaranteed by the single-pending-log invariant, not by this counter).
_txids = itertools.count(1)

_OPEN = "open"
_COMMITTED = "committed"
_ABORTED = "aborted"
_PENDING = "pending-replay"


def _parent(path: str) -> str:
    """The directory holding ``path`` (canonical spelling, not the root)."""
    if path == "/":
        raise InvalidArgument("the root directory has no name")
    return path.rsplit("/", 1)[0] or "/"


def _before_renames(path: str, renames: List[Tuple[str, str]]) -> str:
    """The name ``path`` had before ``renames`` (oldest first) were staged."""
    for old, new in reversed(renames):
        if path == new or path.startswith(new + "/"):
            path = old + path[len(new):]
    return path


class _CommitSpans:
    """A commit's spans, made only while observing: ``tx.commit``, and one
    phase span at a time inside it.  Each closes as its ``with`` block
    would have, told the error that escapes it."""

    def __init__(self, tx: "Tx"):
        self.phase = None
        self.top = obs.span("tx.commit", category="tx", txid=tx.txid,
                            ops=len(tx.ops))
        self.top.__enter__()

    def enter(self, name: str) -> None:
        self.phase = obs.span(name, category="tx")
        self.phase.__enter__()

    def exit(self, exc: Optional[BaseException] = None) -> None:
        """Close the open phase, if one is."""
        phase, self.phase = self.phase, None
        if phase is not None:
            phase.__exit__(*_exc_info(exc))

    def close(self, exc: Optional[BaseException] = None) -> None:
        """Close the open phase, then ``tx.commit``."""
        self.exit(exc)
        self.top.__exit__(*_exc_info(exc))


def _exc_info(exc: Optional[BaseException]):
    return (None, None, None) if exc is None else (type(exc), exc, exc.__traceback__)


class Tx:
    """One crash-atomic unit of work across many files.

    Usable as a context manager (commit on clean exit, abort on
    exception) or driven explicitly via :meth:`commit` / :meth:`abort`.
    """

    def __init__(self, manager: "TxManager"):
        self._mgr = manager
        self.txid = next(_txids)
        self.ops: List[TxRecord] = []
        self.state = _OPEN
        #: staged namespace overlay: normalized path -> "file" | "dir" |
        #: None (deleted by this tx).  Paths absent here resolve against
        #: the live filesystem (through any staged directory renames).
        self._overlay: Dict[str, Optional[str]] = {}
        #: staged directory renames, oldest first, for path translation.
        self._dir_renames: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ #
    # Staged namespace resolution
    # ------------------------------------------------------------------ #

    def _node_type(self, path: str) -> Optional[str]:
        if path == "/":
            return "dir"
        overlay = self._overlay
        if path in overlay:
            return overlay[path]
        # A staged-away ancestor (deleted or renamed from under this path)
        # hides everything beneath it, even entries still live on-volume.
        anc = path
        while overlay and anc != "/":
            anc = _parent(anc)
            if anc in overlay:
                if overlay[anc] != "dir":
                    return None
                break
        try:
            # Under its current on-volume name.
            mi = self._mgr.fs._resolve(paths.parse(
                _before_renames(path, self._dir_renames)))
        except NoEntry:
            return None
        return "dir" if mi.is_dir else "file"

    def _require_file(self, path: str) -> None:
        """Raise unless ``path`` names a regular file, staged or live."""
        ntype = self._node_type(path)
        if ntype is None:
            raise NoEntry(path)
        if ntype == "dir":
            raise IsADir(path)

    def _require_parent_dir(self, path: str) -> None:
        parent = _parent(path)
        ptype = self._node_type(parent)
        if ptype is None:
            raise NoEntry(parent)
        if ptype != "dir":
            raise NotADir(parent)

    def _require_open(self) -> None:
        if self.state != _OPEN:
            raise TxError(f"transaction {self.txid} is {self.state}")

    def _record(self, rec: TxRecord) -> None:
        self.ops.append(rec)
        if obs.enabled:
            obs.count("tx.ops", op=rec.op)

    # ------------------------------------------------------------------ #
    # Buffered operations
    # ------------------------------------------------------------------ #

    def create(self, path: str, mode: int = 0o664) -> None:
        """Stage creation of an empty regular file."""
        self._require_open()
        path = paths.normalize(path)
        if self._node_type(path) is not None:
            raise Exists(path)
        self._require_parent_dir(path)
        self._record(TxRecord(TX_CREATE, path, arg=mode))
        self._overlay[path] = "file"

    def mkdir(self, path: str, mode: int = 0o775) -> None:
        """Stage creation of a directory."""
        self._require_open()
        path = paths.normalize(path)
        if self._node_type(path) is not None:
            raise Exists(path)
        self._require_parent_dir(path)
        self._record(TxRecord(TX_MKDIR, path, arg=mode))
        self._overlay[path] = "dir"

    def pwrite(self, path: str, data: bytes, offset: int = 0) -> None:
        """Stage a write into an existing (or tx-created) regular file."""
        if self.state != _OPEN:
            self._require_open()  # raises
        comps = paths.parse(path)
        path = paths.join(comps)
        if self._overlay:
            self._require_file(path)
        else:
            # Nothing staged over the namespace: the live name answers, in
            # one resolution of the one parse.
            try:
                mi = self._mgr.fs._resolve(comps)
            except NoEntry:
                raise NoEntry(path) from None
            if mi.is_dir:
                raise IsADir(path)
        if offset < 0:
            raise InvalidArgument("negative offset")
        self._record(TxRecord(TX_PWRITE, path, arg=offset, data=bytes(data)))

    def write_file(self, path: str, data: bytes) -> None:
        """Stage create-if-missing + truncate + full overwrite."""
        path = paths.normalize(path)
        if self._node_type(path) is None:
            self.create(path)
        else:
            self.truncate(path, len(data))
        self.pwrite(path, data, 0)

    def truncate(self, path: str, size: int) -> None:
        """Stage a size change of a regular file."""
        self._require_open()
        path = paths.normalize(path)
        self._require_file(path)
        if size < 0:
            raise InvalidArgument("negative size")
        self._record(TxRecord(TX_TRUNCATE, path, arg=size))

    def rename(self, old: str, new: str) -> None:
        """Stage a rename; the destination must not exist."""
        self._require_open()
        old = paths.normalize(old)
        new = paths.normalize(new)
        otype = self._node_type(old)
        if otype is None:
            raise NoEntry(old)
        if self._node_type(new) is not None:
            raise Exists(new)
        self._require_parent_dir(new)
        if otype == "dir" and (new == old or new.startswith(old + "/")):
            raise InvalidArgument(f"cannot move {old!r} under itself")
        self._record(TxRecord(TX_RENAME, old, data=new.encode()))
        self._overlay[old] = None
        self._overlay[new] = otype
        if otype == "dir":
            # Re-home staged children and remember the prefix move so live
            # lookups under the new name reach the still-unmoved subtree.
            prefix = old + "/"
            for p in [p for p in self._overlay if p.startswith(prefix)]:
                self._overlay[new + p[len(old):]] = self._overlay.pop(p)
            self._dir_renames.append((old, new))

    def unlink(self, path: str) -> None:
        """Stage removal of a regular file."""
        self._require_open()
        path = paths.normalize(path)
        self._require_file(path)
        self._record(TxRecord(TX_UNLINK, path))
        self._overlay[path] = None

    # ------------------------------------------------------------------ #
    # Commit / abort
    # ------------------------------------------------------------------ #

    def prepare(self) -> None:
        """Meet every ownership conflict *before* the commit point.

        :meth:`commit` applies through the owning LibFS after the seal,
        where ``TryAgain`` (another application holds an inode the apply
        needs) can only be answered by rolling back — or, after an applied
        unlink, by leaving the log pending.  Walking the staged ops in
        order, this takes for write what the apply will take: the parents
        that namespace ops edit, the files that data ops dirty or unlink,
        the destination chain a directory relocation commits.  A conflict
        therefore surfaces here, with nothing on PM and the transaction
        still open: clear it and call again.
        """
        self._require_open()
        fs = self._mgr.fs
        renames: List[Tuple[str, str]] = []  # staged before this record

        def take(path: str) -> Optional[int]:
            """Own for write the inode ``path`` names now; None when nothing
            does (an earlier record of this transaction creates it)."""
            try:
                ino = fs.path_ino(path)
            except NoEntry:
                return None
            fs._attach(ino, write=True)
            return ino

        for rec in self.ops:
            path = _before_renames(rec.path, renames)
            parent = _parent(path)
            if rec.op in (TX_PWRITE, TX_TRUNCATE):
                if take(path) is None:
                    take(parent)  # the apply creates what is missing
            elif rec.op == TX_RENAME:
                new = rec.data.decode()
                new_parent = _parent(_before_renames(new, renames))
                take(parent)
                take(new_parent)
                if (rec.path, new) in self._dir_renames \
                        and _parent(rec.path) != _parent(new):
                    # A directory relocation commits the destination chain
                    # top-down from the root (LibFS Rules (1)+(3)).
                    comps = paths.parse(new_parent)
                    for depth in range(len(comps)):
                        take(paths.join(comps[:depth]))
                renames.append((rec.path, new))
            else:
                take(parent)
                if rec.op == TX_UNLINK:
                    take(path)

    def commit(self) -> Dict[str, int]:
        """Make every staged op durable as one crash-atomic unit.

        Returns ``{"ops": ..., "log_pages": ..., "log_bytes": ...}``.
        """
        self._require_open()
        ops = self.ops
        if not ops:
            self.state = _COMMITTED
            obs.count("tx.commits", empty=True)
            return {"ops": 0, "log_pages": 0, "log_bytes": 0}
        mgr, txid = self._mgr, self.txid
        # Off, observability and failpoints cost one test each: the spans
        # open only while observing, and a failpoint is hit only while
        # observing (every hit is counted) or while a hook is armed.
        observe, hooks = obs.enabled, failpoints.hooks
        with mgr.commit_lock:
            spans = _CommitSpans(self) if observe else None
            try:
                payload = build_payload(txid, ops)
                if observe:
                    spans.enter("tx.log")
                pages = write_log(mgr.device, mgr.geom, mgr.alloc, payload)
                if observe:
                    spans.exit()
                if observe or hooks:
                    failpoints.hit("tx.pre_seal", txid)
                if observe:
                    spans.enter("tx.seal")
                seal(mgr.device, pages[0], payload_tag(payload))
                if observe:
                    spans.exit()
                if observe or hooks:
                    failpoints.hit("tx.post_seal", txid)
                applied: List[Optional[Inverse]] = []
                if observe:
                    spans.enter("tx.apply")
                try:
                    apply_records(mgr.fs, ops, txid, applied)
                except (CrashPoint, SimulatedFault):
                    raise  # a simulated machine crash: recovery finishes the tx
                except Exception as exc:
                    if observe:
                        spans.exit(exc)
                    self._apply_failed(applied, pages, exc)
                if observe:
                    spans.exit()
                if observe or hooks:
                    failpoints.hit("tx.pre_checkpoint", txid)
                if observe:
                    spans.enter("tx.checkpoint")
                retire(mgr.device, mgr.alloc, pages)
            except BaseException as exc:
                if observe:
                    spans.close(exc)
                raise
            if observe:
                spans.close()
        self.state = _COMMITTED
        if observe:
            obs.count("tx.commits")
            obs.count("tx.log_pages", len(pages))
            obs.count("tx.log_bytes", len(payload))
        return {"ops": len(ops), "log_pages": len(pages),
                "log_bytes": len(payload)}

    def abort(self) -> None:
        """Discard the staged ops; nothing has touched PM."""
        self._require_open()
        self.state = _ABORTED
        self.ops.clear()
        self._overlay.clear()
        self._dir_renames.clear()
        obs.count("tx.aborts")

    def _apply_failed(self, applied: List[Optional[Inverse]], pages: List[int],
                      exc: Exception) -> None:
        """Undo a partially-applied commit, or hand it to recovery.

        An applied ``unlink`` is not logically reversible (the inode and
        its pages are gone), so a failure after one leaves the sealed log
        pending: the volume temporarily shows a prefix of the tx and the
        next mount replays the log to completion (roll-forward).  Every
        other partial prefix is undone from the inverses its apply kept
        (:func:`~repro.tx.recovery.undo`): the volume is left as this
        commit found it.  The undo is fenced before the log is
        retired, so a crash inside it still finds the seal and replays the
        whole transaction.
        """
        mgr = self._mgr
        if any(rec.op == TX_UNLINK for rec in self.ops[:len(applied)]):
            self.state = _PENDING
            obs.count("tx.roll_forward_pending")
            raise TxCommitPending(
                f"transaction {self.txid} failed mid-apply after an unlink; "
                f"sealed log will be replayed at next mount"
            ) from exc
        skipped = undo(mgr.fs, applied)
        if skipped:
            obs.count("tx.rollback_skipped", skipped)
        mgr.device.sfence()
        retire(mgr.device, mgr.alloc, pages)
        self.state = _ABORTED
        obs.count("tx.aborts", apply_failure=True)
        raise TxAborted(
            f"transaction {self.txid} rolled back: {exc}"
        ) from exc

    # ------------------------------------------------------------------ #
    # Context manager
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Tx":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != _OPEN:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:
        return f"<Tx {self.txid} {self.state}, {len(self.ops)} op(s)>"


class TxManager:
    """Per-session factory for :class:`Tx` handles.

    Constructed by the ``repro.api`` facade only (TID251-banned
    elsewhere); shares the session's LibFS and its kernel's allocator.
    Commits across *all* managers of a volume serialize on the kernel's
    ``tx_commit_lock`` — the superblock holds exactly one pending log.
    """

    def __init__(self, fs):
        self.fs = fs
        self.kernel = fs.kernel
        self.device = fs.kernel.device
        self.geom = fs.kernel.geom
        self.alloc = fs.kernel.alloc
        self.commit_lock = fs.kernel.tx_commit_lock

    def begin(self) -> Tx:
        if obs.enabled:
            obs.count("tx.begin")
        return Tx(self)
