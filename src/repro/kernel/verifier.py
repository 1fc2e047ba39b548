"""The Trio integrity verifier.

Verification runs on every ownership transfer (release), on every *commit*
(verify-in-place while retaining ownership, [Trio §4.3]), and — for trust
groups — when an inode leaves the group.  The verifier reads only the core
state in PM plus the kernel's own shadow table; nothing the LibFS says is
trusted.

The invariant at the centre of the paper's §3 discussion is **I3**: the file
system hierarchy forms a connected tree.  Concretely:

* a *new* inode passes verification only after its parent directory's
  verification has observed its dentry (LibFS Rule (1)) — before that the
  inode is, from the kernel's perspective, disconnected from the root;
* a dentry that *disappears* from a directory is interpreted as a deletion,
  and deleting a non-empty directory fails verification;
* the ArckFS+ parent pointer (§4.1) adds the missing third interpretation:
  if the child's verified parent already points elsewhere, the child was
  *renamed away* and the old parent passes.  Re-targeting the parent pointer
  happens when the **new** parent commits, guarded by the paper's three
  checks: the LibFS currently holds the old parent; the new parent is not a
  descendant of the renamed inode; and (for directories) the LibFS holds the
  global rename lease.

Under the unpatched ArckFS flags the verifier reproduces the §4.1 behaviour
faithfully: a legitimate relocation of a non-empty directory fails
verification of the old parent, "regardless of whether the new parent inode
has been released".

``Verifier.verify`` decomposes into **read → judge → check pages →
check dentries → check absent children → commit**.  Read (one pass of
``read_shape``, the reader fsck, mount and the LibFS use) yields the
inode's shape, judged by the rules fsck and mount share
(:mod:`repro.core.invariants`); every later check is against the shadow
table.  Read, judge and commit (the controller applying the
:class:`StagedUpdate` under its lock) are serial; the per-item checks in
between are independent of each other, and that is where all the Table 4
bytes go — a 256 KiB shared file is 65 page checks per transfer against a
fixed cost of one record read.  Each of those check batches is counted
once in :class:`PipelineStats` (:meth:`Verifier._count`) and checked in
order, in a plain loop on the calling thread.

Parallel verification is a claim of the calibrated cost model, not of a
thread pool: ``CostModel.verify_pipeline_time`` prices one transfer at any
worker count, and ``CostModel.verify_critical_units`` prices a run's
recorded ``PipelineStats.batch_sizes`` — each batch dealt round-robin over
the workers, the slowest shard bounding it.  Python threads share the GIL,
so running shards on threads would measure the interpreter, not the
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.config import ArckConfig
from repro.core.corestate import CoreState
from repro.core.invariants import InodeShape, read_shape, resolve_dentries, violations
from repro.errors import VerifyFailure  # noqa: F401  (canonical home; re-exported)
from repro.pm.layout import PAGE_SIZE, InodeRecord


@dataclass
class StagedUpdate:
    """Shadow-table mutations to apply if (and only if) verification passes."""

    ino: int
    bytes_verified: int = 0
    #: (ino, gen, itype, mode, uid, parent, name) for newly created children.
    created: List[Tuple[int, int, int, int, int, int, bytes]] = field(default_factory=list)
    #: (child_ino, new_parent_ino, new_name) — incoming renames.
    reparented: List[Tuple[int, int, bytes]] = field(default_factory=list)
    #: child inos whose deletion is confirmed (shadow entry dropped).
    deleted: List[int] = field(default_factory=list)
    #: child inos renamed away under the old semantics (shadow entry kept,
    #: detached) — ArckFS-mode bookkeeping for moved files.
    detached: List[int] = field(default_factory=list)
    #: the verified directory's new children map (dirs only).
    new_children: Optional[Dict[bytes, int]] = None
    #: pages now owned by this inode.
    pages: Set[int] = field(default_factory=set)
    #: verified file size (files only).
    size: Optional[int] = None
    #: the inode's record was found freed; deletion pending parent confirm.
    mark_deleted_pending: bool = False
    #: a pending (never linked) inode was fully undone; return its slot.
    drop_pending: bool = False


@dataclass
class PipelineStats:
    """Deterministic work accounting for the verifier's check batches.

    How many verifications ran is ``KernelStats.verifications +
    group_skips``: every call of :meth:`Verifier.verify` is one of those."""

    #: individual page checks / dentry checks / absent-child checks issued.
    page_checks: int = 0
    dentry_checks: int = 0
    absent_checks: int = 0
    #: batch size -> how many non-empty check batches had it, over all three
    #: stages: what ``CostModel.verify_critical_units`` prices at any
    #: worker count.
    batch_sizes: Dict[int, int] = field(default_factory=dict)


class Verifier:
    """Checks one inode's core state against the shadow table.

    The three per-item check batches (pages, dentries, absent children)
    are each counted by one :meth:`_count` call, then checked in a loop on
    the calling thread.
    """

    def __init__(self, controller):
        # The controller owns shadow/pending/acquisitions/page_owner; we
        # only read them here and return staged updates.
        self.kc = controller
        self.pstats = PipelineStats()

    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ArckConfig:
        return self.kc.config

    @property
    def core(self) -> CoreState:
        return self.kc.core

    def verify(self, ino: int, app_id: Optional[str], *,
               trusted: bool = False) -> StagedUpdate:
        """Verify ``ino`` as released/committed by ``app_id``.

        Returns the staged shadow updates; raises :class:`VerifyFailure`.
        ``app_id`` may be None for group-exit verification, in which case
        the acquisition-dependent rename checks fail closed.

        ``trusted`` is the intra-trust-group mode (§5.4): the structural
        reconciliation (register created children, apply renames and
        deletions) still runs — the kernel must know which inodes exist to
        hand them to other group members — but every integrity check is
        waived.  Full verification is deferred until the inode leaves the
        group.
        """
        with obs.span("verify.pipeline", category="kernel", ino=ino):
            return self._verify(ino, app_id, trusted)

    def _verify(self, ino: int, app_id: Optional[str], trusted: bool) -> StagedUpdate:
        kc = self.kc
        sh = kc.shadow.get(ino)
        pending = kc.pending.get(ino)
        if sh is None and pending is None:
            raise VerifyFailure(ino, "unknown inode")

        staged = StagedUpdate(ino=ino)
        rec = self.core.read_inode(ino)
        staged.bytes_verified += InodeRecord.SIZE

        if sh is None:
            if not rec.valid:
                # The creation was fully undone (create + unlink before any
                # commit): return the never-linked slot.
                staged.drop_pending = True
                return staged
            # LibFS Rule (1): a newly created inode is disconnected from the
            # root until its parent's verification registered it.
            raise VerifyFailure(ino, "I3: new inode not connected to the root yet")

        if not rec.valid:
            # The LibFS freed the record (unlink of an acquired inode).  The
            # deletion is confirmed when the parent's verification sees the
            # tombstoned dentry; until then remember it.
            staged.mark_deleted_pending = True
            return staged

        pending_recs: Dict[int, InodeRecord] = {}  # read by ``_target``
        shape = read_shape(self.core, ino, rec)
        if trusted and not shape.parsed():
            raise VerifyFailure(ino, "unparseable core state")
        if not trusted:  # its own shape first, then the shadow table's
            first = next(violations(
                shape, self._target(pending_recs, staged)), None)
            if first is not None:
                raise VerifyFailure(ino, first.detail, rule=first.rule)
            self._check_record(ino, rec, sh)
        if rec.is_dir:
            self._verify_directory(shape, sh, app_id, staged, trusted,
                                   pending_recs)
        else:
            # Both chains' pages go to one batch.
            pages = shape.index.pages + shape.data
            if not trusted:
                self._check_pages(ino, pages)
                staged.bytes_verified += len(pages) * PAGE_SIZE
            staged.pages.update(pages)
            staged.size = rec.size
        return staged

    # ------------------------------------------------------------------ #

    def _target(self, pending_recs: Dict[int, InodeRecord],
                staged: StagedUpdate):
        """A dentry's target as the kernel sees it: its shadow entry, or a
        pending inode's record if valid (read once, kept in ``pending_recs``)."""
        kc = self.kc

        def target(child: int):
            sh = kc.shadow.get(child)
            if sh is not None or child not in kc.pending:
                return sh
            rec = pending_recs.get(child)
            if rec is None:
                rec = pending_recs[child] = self.core.read_inode(child)
                staged.bytes_verified += InodeRecord.SIZE
            return rec if rec.valid else None

        return target

    def _check_record(self, ino: int, rec: InodeRecord, sh) -> None:
        if rec.gen != sh.gen:
            raise VerifyFailure(ino, f"generation changed ({sh.gen} -> {rec.gen})")
        if rec.itype != sh.itype:
            raise VerifyFailure(ino, f"type changed ({sh.itype} -> {rec.itype})")
        if rec.mode != sh.mode or rec.uid != sh.uid:
            raise VerifyFailure(ino, "permission bits or owner changed")

    def _check_page(self, ino: int, page_no: int) -> None:
        """Check one page against the bitmap and the page-owner map."""
        kc = self.kc
        if not kc.alloc.is_allocated(page_no):
            raise VerifyFailure(ino, f"page {page_no} not allocated")
        owner = kc.page_owner.get(page_no)
        if owner is not None and owner != ino:
            raise VerifyFailure(ino, f"page {page_no} owned by inode {owner}")

    # ------------------------------------------------------------------ #
    # Directories
    # ------------------------------------------------------------------ #

    def _verify_directory(self, shape: InodeShape, sh, app_id,
                          staged: StagedUpdate, trusted: bool,
                          pending_recs: Dict[int, InodeRecord]) -> None:
        ino = shape.ino
        pages = [p for _idx, chain in shape.tails for p in chain.pages]
        if not trusted:
            self._check_pages(ino, pages)
        staged.pages.update(pages)
        staged.bytes_verified += len(pages) * PAGE_SIZE

        entries = [(name, d) for name, (d, _loc)
                   in resolve_dentries(shape.records).items()]
        # Check every present dentry, then every shadow child the log no
        # longer shows; the absent pass needs the complete new-children map
        # (an in-directory rename looks absent under its old name).
        self._count("dentry_checks", len(entries))
        new_children = {name: d.ino for name, d in entries
                        if self._check_dentry(ino, sh, app_id, name, d, staged,
                                              trusted, pending_recs)}
        linked = set(new_children.values())
        self._count("absent_checks", len(sh.children))
        for name, child_ino in sh.children.items():
            self._check_absent_child(
                ino, name, child_ino, new_children, linked, staged, trusted)
        staged.new_children = new_children

    # -- the check batches ----------------------------------------------- #

    def _check_pages(self, ino: int, pages: Sequence[int]) -> None:
        """Run :meth:`_check_page` for every page, as one batch."""
        self._count("page_checks", len(pages))
        for page_no in pages:
            self._check_page(ino, page_no)

    def _count(self, stat: str, n: int) -> None:
        """Count a batch of ``n`` checks in ``PipelineStats.<stat>`` and in
        the batch-size histogram (an empty batch is no batch)."""
        if n:
            pstats = self.pstats
            setattr(pstats, stat, getattr(pstats, stat) + n)
            pstats.batch_sizes[n] = pstats.batch_sizes.get(n, 0) + 1

    # -- per-item checks ------------------------------------------------- #

    def _check_dentry(self, ino: int, sh, app_id, name: bytes, d,
                      staged: StagedUpdate, trusted: bool,
                      pending_recs: Dict[int, InodeRecord]) -> bool:
        """Check one live dentry; True iff it belongs in the children map.
        Unless ``trusted``, the rules found its body and target sound."""
        kc = self.kc
        known_child = sh.children.get(name)
        child_sh = kc.shadow.get(d.ino)
        child_pending = kc.pending.get(d.ino)

        if known_child == d.ino and child_sh is not None and child_sh.gen == d.gen:
            return True  # unchanged entry

        if trusted:
            # §5.4: register/reparent without checks.
            if child_sh is not None:
                staged.reparented.append((d.ino, ino, name))
                return True
            if child_pending is not None:
                child_rec = self.core.read_inode(d.ino)
                staged.bytes_verified += InodeRecord.SIZE
                if child_rec.valid:
                    staged.created.append(
                        (d.ino, d.gen, child_rec.itype, child_rec.mode,
                         child_rec.uid, ino, name)
                    )
                    return True
            return False

        if child_sh is not None:
            # Existing inode appearing (or re-appearing) under this dir:
            # an incoming rename.
            if child_sh.parent == ino:
                # Same parent, new name: an in-directory rename; the old
                # name simply disappears (handled in the absent pass).
                staged.reparented.append((d.ino, ino, name))
                return True
            if child_sh.is_dir and self.config.shadow_parent_pointer:
                # Directory relocation is the per-operation-verified
                # special case of the §4.1 patch; plain file moves (e.g.
                # FxMark's MWRM) carry no I3 risk and need no checks.
                self._check_incoming_rename(ino, d.ino, child_sh, app_id)
            # ArckFS mode: accepted unconditionally (no checks — which is
            # why concurrent cross-renames can create a cycle, §4.6).
            staged.reparented.append((d.ino, ino, name))
        else:
            # A creation by the owning application.
            if app_id is not None and child_pending.owner != app_id:
                raise VerifyFailure(
                    ino, f"dentry {name!r} references inode pending for another app"
                )
            if child_pending.gen != d.gen:
                raise VerifyFailure(
                    ino, f"dentry {name!r} generation differs from the one handed out")
            child_rec = pending_recs[d.ino]
            staged.created.append(
                (d.ino, d.gen, child_rec.itype, child_rec.mode, child_rec.uid, ino, name)
            )
        return True

    def _check_absent_child(self, ino: int, name: bytes, child_ino: int,
                            new_children: Dict[bytes, int], linked: Set[int],
                            staged: StagedUpdate, trusted: bool) -> None:
        """Check one shadow child the log no longer shows under ``name``."""
        if new_children.get(name) == child_ino:
            return
        child_sh = self.kc.shadow.get(child_ino)
        if child_sh is None:
            return  # already reclaimed
        if child_ino in linked:
            return  # in-directory rename handled by the dentry pass
        if trusted:
            self._detach_or_delete(child_ino, staged, counted=False)
            return
        self._missing_child(ino, name, child_ino, child_sh, staged)

    def _check_incoming_rename(self, new_parent: int, child_ino: int, child_sh, app_id) -> None:
        """The three ArckFS+ checks of §4.1 for re-targeting a parent pointer."""
        kc = self.kc
        # (1) The LibFS currently acquires the old parent.
        old_parent = child_sh.parent
        acq = kc.acquisitions.get(old_parent) if old_parent is not None else None
        if app_id is None or acq is None or acq.app_id != app_id:
            raise VerifyFailure(
                new_parent,
                f"rename of inode {child_ino}: old parent {old_parent} not held by releasing app",
            )
        # (2) The new parent is not a descendant of the renamed inode.
        node: Optional[int] = new_parent
        hops = 0
        while node is not None and hops <= len(kc.shadow) + 1:
            if node == child_ino:
                raise VerifyFailure(
                    new_parent,
                    f"rename of inode {child_ino} would create a cycle (I3)",
                )
            parent_sh = kc.shadow.get(node)
            node = parent_sh.parent if parent_sh else None
            hops += 1
        # (3) For directories, the LibFS holds the global rename lease.
        if child_sh.is_dir and self.config.global_rename_lock:
            if not kc.rename_lock_held(app_id):
                raise VerifyFailure(
                    new_parent,
                    f"rename of inode {child_ino}: releasing app does not hold "
                    "the global rename lease",
                )

    def _missing_child(self, ino: int, name: bytes, child_ino: int, child_sh, staged) -> None:
        """A verified child's dentry is gone: deleted, or renamed away?"""
        if self.config.shadow_parent_pointer:
            if child_sh.parent != ino or child_sh.name != name:
                # Renamed away: the new parent's commit already re-targeted
                # the parent pointer (LibFS Rule (2) guarantees that order).
                return
            # Parent pointer still points here -> deletion (or, for files
            # and empty directories, a move whose new parent has not yet
            # committed — harmless either way, since I3 can only be violated
            # through a non-empty directory).
            if child_sh.nonempty_dir:
                raise VerifyFailure(
                    ino, f"I3: dentry {name!r} removed but directory {child_ino} is non-empty"
                )
            self._detach_or_delete(child_ino, staged)
            return
        # --- unpatched ArckFS: no parent pointer, deletion is the only
        # interpretation the verifier can check (§4.1). ------------------- #
        if child_sh.nonempty_dir:
            # The bug: a legitimately relocated non-empty directory fails the
            # old parent's verification, since it looks like an I3 violation.
            raise VerifyFailure(
                ino,
                f"I3: dentry {name!r} removed but directory {child_ino} is non-empty "
                "(cannot distinguish deletion from rename)",
            )
        self._detach_or_delete(child_ino, staged)

    def _detach_or_delete(self, child_ino: int, staged: StagedUpdate,
                          counted: bool = True) -> None:
        """Stage a vanished child by what its record says: still valid, the
        file (or empty dir) moved — keep the shadow entry, detached, until
        it shows up under a new parent; freed, the deletion is confirmed."""
        child_rec = self.core.read_inode(child_ino)
        if counted:  # the trusting pass has never counted this read
            staged.bytes_verified += InodeRecord.SIZE
        (staged.detached if child_rec.valid else staged.deleted).append(child_ino)
