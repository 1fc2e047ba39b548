"""The Trio in-kernel access controller.

One :class:`KernelController` instance is "the kernel" for one device: it
owns the shadow inode table, grants/revokes inode ownership to registered
applications (LibFS instances), runs the verifier on every ownership
transfer, applies resolution policies on corruption, hands out inode
numbers, arbitrates the global rename lease (§4.6 patch), and implements
trust groups (§5.4).

Recovery after a crash (``KernelController.mount``) rebuilds everything from
the durable core state alone, read by fsck's own check: it reconstructs the
shadow table from what the root reaches and, with fsck's repair engine,
repairs the classes of ``repro.fsck.repair.MOUNT_CLASSES`` before an
application attaches.  Its report is that check's ``FsckReport``, repairs
counted by class; what it leaves (the §4.2 observable, say) is fsck's.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.concurrency.lease import Lease
from repro.core.config import ARCKFS_PLUS, ArckConfig
from repro.core.corestate import CoreState
from repro.core.mkfs import ROOT_INO, load_geometry, mkfs
from repro.errors import (
    ChainCorrupt,
    CorruptionDetected,
    InvalidArgument,
    NoEntry,
    NoSpace,
    PermissionDenied,
    TryAgain,
)
from repro.kernel.permissions import READ, WRITE, check_access
from repro.kernel.policy import ResolutionPolicy, RollbackPolicy
from repro.kernel.readcache import ReadMappingCache
from repro.kernel.shadow import Acquisition, PendingInode, ShadowInode, Snapshot
from repro.kernel.verifier import Verifier, VerifyFailure
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import InodeRecord
from repro.pm.mapping import Mapping

if TYPE_CHECKING:  # repro.fsck sits above the kernel layer
    from repro.fsck.findings import FsckReport


@dataclass
class AppInfo:
    app_id: str
    uid: int
    group: Optional[str] = None


@dataclass
class KernelStats:
    acquires: int = 0
    releases: int = 0
    commits: int = 0
    revokes: int = 0
    verifications: int = 0
    bytes_verified: int = 0
    snapshots: int = 0
    snapshot_bytes: int = 0
    rollbacks: int = 0
    rollback_bytes: int = 0
    marked_inaccessible: int = 0
    group_skips: int = 0


@dataclass
class AuditIssue:
    kind: str  # "cycle" | "orphan" | "dangling-child"
    detail: str


class KernelController:
    """Trusted kernel side of the Trio architecture for one PM device."""

    def __init__(
        self,
        device: PMDevice,
        config: ArckConfig = ARCKFS_PLUS,
        policy: Optional[ResolutionPolicy] = None,
    ):
        self.device = device
        self.config = config
        self.policy = policy or RollbackPolicy()
        self.geom = load_geometry(device)
        self.core = CoreState(device, self.geom)
        self.alloc = PageAllocator(device, self.geom)
        self.verifier = Verifier(self)
        self.rename_lease = Lease("global-rename", duration=1.0)
        #: one monotonic version per inode slot — the only thing retained
        #: auxiliary state is validated against.  It moves when a writable
        #: acquisition begins (:meth:`_open_for_write`), when the kernel
        #: itself rewrites the core state (the resolution in
        #: :meth:`_verify_or_resolve`) and when the inode is deleted
        #: (:meth:`_drop_shadow`) — nowhere else; applications read it
        #: through ``readcache`` without crossing into the kernel.
        self.inode_version: List[int] = [0] * self.geom.inode_count
        #: the published side: the version table above plus shared read-only
        #: mappings of verified files, handed out under the same READ check
        #: as an acquisition, against the uid registered here.
        self.readcache = ReadMappingCache(
            device, self.inode_version,
            uid_of=lambda app_id: self._require_app(app_id).uid)
        self.stats = KernelStats()
        self._lock = threading.RLock()

        self.apps: Dict[str, AppInfo] = {}
        self.shadow: Dict[int, ShadowInode] = {}
        self.pending: Dict[int, PendingInode] = {}
        self.acquisitions: Dict[int, Acquisition] = {}
        #: page -> owning inode, and its inversion ino -> pages.  Written
        #: only by :meth:`set_page_owner` / :meth:`clear_page_owner`;
        #: ``page_owner`` is the read-only view everyone else gets.
        self._page_owner: Dict[int, int] = {}
        self.inode_pages: Dict[int, Set[int]] = {}
        self.page_owner = MappingProxyType(self._page_owner)
        self.slot_gen: List[int] = [0] * self.geom.inode_count
        #: free inode slots: membership set plus a min-heap holding exactly
        #: the same numbers (:meth:`_free_slot` / :meth:`alloc_inode`).
        self.free_inodes: Set[int] = set()
        self._free_heap: List[int] = []
        #: rollback target for inodes dirtied inside a trust group.
        self._group_snapshots: Dict[int, Snapshot] = {}
        #: mount's check of the volume, with the repairs it made.
        self.last_recovery: Optional[FsckReport] = None
        #: serializes transaction commits volume-wide: the superblock holds
        #: exactly one pending redo log (``repro.tx``).
        self.tx_commit_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def fresh(
        cls,
        device: PMDevice,
        inode_count: int = 1024,
        config: ArckConfig = ARCKFS_PLUS,
        policy: Optional[ResolutionPolicy] = None,
        stripe_pages: int = 1,
    ) -> "KernelController":
        """mkfs + mount on an empty device.

        ``stripe_pages`` is the stripe width of a striped device (flat
        devices ignore it).
        """
        mkfs(device, inode_count, stripe_pages=stripe_pages)
        return cls.mount(device, config=config, policy=policy)

    @classmethod
    def mount(
        cls,
        device: PMDevice,
        config: ArckConfig = ARCKFS_PLUS,
        policy: Optional[ResolutionPolicy] = None,
    ) -> "KernelController":
        """Mount an existing (possibly crash-recovered) device."""
        kc = cls(device, config=config, policy=policy)
        kc.last_recovery = kc._recover()
        return kc

    def _recover(self) -> FsckReport:
        """Rebuild shadow table, page ownership and slot gens from fsck's
        check (whose namespace verdict says what the root reaches, under
        which edge), then repair with fsck's engine what mount repairs, a
        pending transaction's replay last, on the rebuilt tables.
        Imported lazily: ``repro.fsck`` sits above the kernel layer."""
        from repro.fsck.repair import MountRepairer
        from repro.fsck.runner import check_volume

        records = self.core.read_inodes()
        report, shapes, ns = check_volume(self.core, records, ROOT_INO)
        root = shapes.get(ROOT_INO)
        if root is None or not root.rec.is_dir:
            raise InvalidArgument("root inode record invalid")

        # The shadow table: the root and every inode it reaches, owning the
        # good-prefix pages its claims hold.  A file keeps nothing past its
        # size (a crash inside an append can leave mapped pages or bytes
        # there); the repairs judge the bitmap by the pages that stay.
        trimmed = False
        for ino in sorted(ns.reachable):
            shape = shapes[ino]
            rec = shape.rec
            parent, name = None, b"/"
            if ino != ROOT_INO:
                parent, name = ns.winners[ino].parent, ns.winners[ino].dentry.name
            self.shadow[ino] = ShadowInode(
                ino=ino, gen=rec.gen, itype=rec.itype, mode=rec.mode,
                uid=rec.uid, parent=parent, name=name, size=rec.size,
                children={ns.winners[c].dentry.name: c
                          for c in ns.children.get(ino, ())})
            if not rec.is_dir and shape.parsed():
                shape.data, stored = self.core.trim_to_size(
                    rec.size, shape.index.pages, shape.data)
                trimmed |= stored
            for page_no in shape.pages():
                if ns.claims.get(page_no, (None,))[0] == ino:
                    self.set_page_owner(page_no, ino)
        if trimmed:
            self.device.sfence()

        # A slot is free when its record is, or when the repair reclaims it.
        repairer = MountRepairer(self)
        findings = repairer.plan(report, shapes, ns)
        wiped = set().union(*repairer.reclaimed.values())
        for ino, rec in enumerate(records):
            self.slot_gen[ino] = rec.gen
            if not rec.valid or ino in wiped:
                self._free_slot(ino)
        report.repairs = repairer.apply(findings)
        return report

    # ------------------------------------------------------------------ #
    # Applications and trust groups (§5.4)
    # ------------------------------------------------------------------ #

    def register_app(self, app_id: str, uid: int, group: Optional[str] = None) -> None:
        with self._lock:
            if app_id in self.apps:
                raise InvalidArgument(f"app {app_id!r} already registered")
            self.apps[app_id] = AppInfo(app_id, uid, group)

    def app_shutdown(self, app_id: str) -> None:
        """Release everything an application still owns (process exit)."""
        with self._lock:
            owned = [ino for ino, acq in self.acquisitions.items() if acq.app_id == app_id]
            for ino in owned:
                try:
                    self.release(app_id, ino)
                except CorruptionDetected:
                    pass
            for ino in [i for i, p in self.pending.items() if p.owner == app_id]:
                del self.pending[ino]
                self._free_slot(ino)

    # ------------------------------------------------------------------ #
    # Inode number allocation
    # ------------------------------------------------------------------ #

    def alloc_inode(self, app_id: str) -> Tuple[int, int]:
        """Hand a free inode slot (and its next generation) to an app."""
        if obs.enabled:
            obs.kernel_crossing("inode_alloc")
        with self._lock:
            self._require_app(app_id)
            if not self.free_inodes:
                raise NoSpace("no free inode slots")
            ino = heapq.heappop(self._free_heap)  # lowest free slot
            self.free_inodes.remove(ino)
            gen = self.slot_gen[ino] + 1
            self.slot_gen[ino] = gen
            self.pending[ino] = PendingInode(ino=ino, gen=gen, owner=app_id)
            return ino, gen

    def abort_inode(self, app_id: str, ino: int) -> None:
        """Return a pending (never linked) inode slot, unmapping if needed."""
        if obs.enabled:
            obs.kernel_crossing("inode_alloc")
        with self._lock:
            pend = self.pending.get(ino)
            if pend is None or pend.owner != app_id:
                raise InvalidArgument(f"inode {ino} not pending for {app_id}")
            acq = self.acquisitions.get(ino)
            if acq is not None:
                self._drop(acq)
            del self.pending[ino]
            self._free_slot(ino)

    def _free_slot(self, ino: int) -> None:
        """Return an inode slot to the free pool (idempotent)."""
        if ino not in self.free_inodes:
            self.free_inodes.add(ino)
            heapq.heappush(self._free_heap, ino)

    # ------------------------------------------------------------------ #
    # Ownership transfer: acquire / commit / release / revoke
    # ------------------------------------------------------------------ #

    def acquire(self, app_id: str, ino: int,
                write: bool = True) -> Tuple[Mapping, int]:
        """Grant ``app_id`` ownership of ``ino`` and map its core state.

        Returns ``(mapping, version)``: the inode's version when the grant
        was made.  Auxiliary state the LibFS built (or was left with, at
        its own release) at that version is still the core state's image;
        at any other it must be rebuilt (§4.3 keeps it around after release
        precisely so the common own-release/re-acquire path is cheap *and*
        safe).
        """
        if obs.enabled:
            obs.kernel_crossing("mmap")
        with self._lock:
            app = self._require_app(app_id)
            sh = self.shadow.get(ino)
            pend = self.pending.get(ino)
            if sh is None and pend is None:
                raise NoEntry(f"inode {ino}")
            acq = self.acquisitions.get(ino)
            if acq is not None:
                if acq.app_id == app_id:
                    if write and not acq.writable:
                        # Read-to-write upgrade: re-run the permission check.
                        if sh is not None:
                            check_access(sh.mode, sh.uid, app.uid, WRITE, f"inode {ino}")
                        acq.writable = True
                        self._open_for_write(ino)
                    return acq.mapping, acq.version  # idempotent re-acquire
                raise TryAgain(f"inode {ino} owned by {acq.app_id}",
                               owner=acq.app_id, ino=ino)
            if sh is not None:
                if sh.inaccessible:
                    raise PermissionDenied(f"inode {ino} marked inaccessible")
                check_access(
                    sh.mode, sh.uid, app.uid, WRITE if write else READ, f"inode {ino}"
                )
                # Trust-group exit: verify deferred modifications now.
                if sh.trusted_dirty_group is not None and sh.trusted_dirty_group != app.group:
                    try:
                        self._verify_or_resolve(
                            ino, None, self._group_snapshots.pop(ino, None))
                    finally:
                        sh.trusted_dirty_group = None
            else:
                if pend.owner != app_id:
                    raise PermissionDenied(f"inode {ino} pending for {pend.owner}")

            snapshot = None
            if sh is not None:
                if app.group is not None and sh.trusted_dirty_group == app.group:
                    snapshot = self._group_snapshots.get(ino)
                else:
                    snapshot = self._snapshot(ino)
            return self._grant(app_id, ino, snapshot, write)

    def _grant(self, app_id: str, ino: int, snapshot: Optional[Snapshot],
               write: bool) -> Tuple[Mapping, int]:
        """Map ``ino`` for ``app_id`` and record the acquisition."""
        mapping = Mapping(self.device, ino, tag=app_id)
        version = self.inode_version[ino]
        self.acquisitions[ino] = Acquisition(
            ino=ino, app_id=app_id, mapping=mapping, snapshot=snapshot,
            writable=write, version=version
        )
        self.stats.acquires += 1
        if write:
            self._open_for_write(ino)
        return mapping, version

    def _open_for_write(self, ino: int) -> None:
        """A writable acquisition begins.  Nothing anybody retained may
        answer for the inode from here on (the version moves; the grant
        reported the number before, so the writer's own state is behind
        too until its release tells it the new one), and writers never
        coexist with zero-crossing readers: unpublish it and revoke every
        cached mapping before the writer sees its own."""
        self.inode_version[ino] += 1
        self.readcache.invalidate(ino)

    def _drop(self, acq: Acquisition) -> int:
        """Unmap an acquisition and forget it (the inverse of :meth:`_grant`).

        Returns the inode's current version: nobody else can have built an
        image at it while the acquisition stood, so it is the number the
        releaser's own — the one that followed the writes — is at."""
        acq.mapping.unmap()
        del self.acquisitions[acq.ino]
        return self.inode_version[acq.ino]

    def commit(self, app_id: str, ino: int) -> None:
        """Verify in place; ownership and mapping are retained ([21, §4.3]).

        On failure the resolution policy runs and CorruptionDetected is
        raised; the mapping stays valid but the LibFS must rebuild its
        auxiliary state from the (possibly rolled back) core state.
        """
        if obs.enabled:
            obs.kernel_crossing("verification")
        with self._lock:
            acq = self._require_acquisition(app_id, ino)
            self._verify_or_resolve(ino, app_id, acq.snapshot)
            acq.snapshot = self._snapshot(ino)
            self.stats.commits += 1

    def release(self, app_id: str, ino: int) -> int:
        """Voluntary release: verify, update shadow, unmap.  Returns the
        inode's version after it, so the releaser's retained auxiliary
        state stays current (a failed release raises: nothing stays)."""
        if obs.enabled:
            obs.kernel_crossing("ownership_transfer")
        with self._lock:
            acq = self._require_acquisition(app_id, ino)
            app = self.apps[app_id]
            sh = self.shadow.get(ino)
            if app.group is not None and sh is not None and not sh.inaccessible:
                # Intra-group transfers skip verification (§5.4); remember
                # the rollback point from before the group started dirtying.
                # Structural reconciliation still runs in *trusting* mode —
                # the kernel must register created inodes to hand them to
                # other group members — but no integrity check is applied.
                if sh.trusted_dirty_group is None and acq.snapshot is not None:
                    self._group_snapshots[ino] = acq.snapshot
                try:
                    staged = self.verifier.verify(ino, app_id, trusted=True)
                    self._apply(staged)
                except VerifyFailure:
                    pass  # unparseable now; the group-exit verification pays
                sh.trusted_dirty_group = app.group
                self.stats.group_skips += 1
                self.stats.releases += 1
                return self._drop(acq)
            try:
                self._verify_or_resolve(ino, app_id, acq.snapshot)
            finally:
                version = self._drop(acq)
            self.stats.releases += 1
            # The inode is verified as of this instant: publish it so other
            # apps can read-attach with zero kernel crossings.  Directories
            # stay unpublished (their staged dentries gate children's
            # verification ordering).
            sh = self.shadow.get(ino)
            if (sh is not None and not sh.is_dir
                    and not sh.inaccessible and not sh.deleted_pending):
                self.readcache.publish(ino, sh.mode, sh.uid)
            return version

    def revoke(self, ino: int) -> None:
        """Involuntary release: the kernel forcefully takes the inode back.

        The owning LibFS may be mid-operation; its next access through the
        mapping raises SimulatedBusError (it "may crash", §4.3) and the
        core state is verified/rolled back like any other release.
        """
        if obs.enabled:
            obs.kernel_crossing("ownership_transfer")
        with self._lock:
            acq = self.acquisitions.get(ino)
            if acq is None:
                return
            try:
                self._verify_or_resolve(ino, acq.app_id, acq.snapshot)
            except CorruptionDetected:
                pass  # policy already resolved it
            finally:
                self._drop(acq)
            self.stats.revokes += 1

    # ------------------------------------------------------------------ #
    # Global rename lease (§4.6 patch)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _lease_holder(app_id: str) -> str:
        # The lease must serialize *threads*, not just applications (the
        # §4.6 case-(1) race is between two threads of one LibFS), so the
        # holder identity includes the calling thread.
        return f"{app_id}/{threading.get_ident()}"

    def rename_lock_acquire(self, app_id: str, timeout: float = 2.0) -> None:
        if obs.enabled:
            obs.kernel_crossing("rename_lease")
        self._require_app(app_id)
        if not self.rename_lease.acquire(self._lease_holder(app_id), timeout=timeout):
            raise TryAgain("global rename lease unavailable")

    def rename_lock_release(self, app_id: str) -> None:
        if obs.enabled:
            obs.kernel_crossing("rename_lease")
        self.rename_lease.release(self._lease_holder(app_id))

    def rename_lock_held(self, app_id: str) -> bool:
        """Does any thread of ``app_id`` hold a live rename lease?"""
        holder = self.rename_lease.held_by()
        return holder is not None and holder.split("/", 1)[0] == app_id

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _require_app(self, app_id: str) -> AppInfo:
        app = self.apps.get(app_id)
        if app is None:
            raise InvalidArgument(f"unregistered app {app_id!r}")
        return app

    def _require_acquisition(self, app_id: str, ino: int) -> Acquisition:
        acq = self.acquisitions.get(ino)
        if acq is None or acq.app_id != app_id:
            raise InvalidArgument(f"inode {ino} not acquired by {app_id!r}")
        return acq

    def _verify_or_resolve(self, ino: int, app_id: Optional[str],
                           snapshot: Optional[Snapshot]) -> None:
        """The verdict path: verify ``ino`` and install the result, or run
        the resolution policy against ``snapshot`` and raise
        ``CorruptionDetected``.  Every verification the kernel acts on —
        commit, release, revoke, trust-group exit — ends
        here (``app_id`` is None on group exit)."""
        self.stats.verifications += 1
        try:
            staged = self.verifier.verify(ino, app_id)
        except VerifyFailure as vf:
            # A Rule (1) ordering violation on a never-registered inode is
            # refused *without* resolution: nothing verified exists to
            # protect and no other app can reference it, so the app can
            # retry in the right order (cf. Figure 2).
            if not (ino in self.pending and ino not in self.shadow):
                if obs.enabled:
                    obs.kernel_crossing("corruption_resolution")
                self.policy.resolve(self, ino, snapshot, vf.reason)
                # The kernel rewrote the core state: no image of it built
                # before — the owner's, a trust-group member's — is current.
                self.inode_version[ino] += 1
            raise CorruptionDetected(vf.ino, vf.reason) from vf
        self._apply(staged)

    def _apply(self, staged) -> None:
        """Install a successful verification's staged shadow updates."""
        sh = self.shadow.get(staged.ino)
        self.stats.bytes_verified += staged.bytes_verified
        if staged.drop_pending:
            self.pending.pop(staged.ino, None)
            self._free_slot(staged.ino)
            return
        if staged.mark_deleted_pending:
            if sh is not None and sh.parent is None and staged.ino != ROOT_INO:
                # Its parent's verification already saw the dentry go and,
                # the record still valid then, detached it: no parent is
                # left to confirm the deletion, so this verification does.
                self._drop_shadow(staged.ino)
            elif sh is not None:
                sh.deleted_pending = True
            return
        for child_ino in staged.deleted:
            self._drop_shadow(child_ino)
        for child_ino in staged.detached:
            csh = self.shadow.get(child_ino)
            if csh is not None and csh.parent == staged.ino:
                csh.parent = None
        for cino, gen, itype, mode, uid, parent, name in staged.created:
            self.pending.pop(cino, None)
            self.shadow[cino] = ShadowInode(
                ino=cino, gen=gen, itype=itype, mode=mode, uid=uid, parent=parent, name=name
            )
        for cino, new_parent, name in staged.reparented:
            csh = self.shadow.get(cino)
            if csh is None:
                continue
            old_parent = csh.parent
            if (
                self.config.shadow_parent_pointer
                and old_parent is not None
                and old_parent != new_parent
            ):
                # With the §4.1 patch the kernel *knows* this is a rename
                # and updates the old parent's expectations.  Unpatched
                # ArckFS has no such knowledge: the old parent still expects
                # the child, so its verification later fails regardless of
                # the release order — exactly the observed bug.
                osh = self.shadow.get(old_parent)
                if osh is not None and osh.children.get(csh.name) == cino:
                    del osh.children[csh.name]
            csh.parent = new_parent
            csh.name = name
        if staged.new_children is not None and sh is not None:
            sh.children = dict(staged.new_children)
        if staged.size is not None and sh is not None:
            sh.size = staged.size
        # Page ownership: this inode now owns exactly staged.pages.
        old_pages = self.inode_pages.get(staged.ino, frozenset())
        for page_no in old_pages - staged.pages:
            self.clear_page_owner(page_no)
        for page_no in staged.pages - old_pages:
            self.set_page_owner(page_no, staged.ino)
        if sh is not None:
            sh.deleted_pending = False
            sh.trusted_dirty_group = None

    def _drop_shadow(self, ino: int) -> None:
        csh = self.shadow.pop(ino, None)
        if csh is None:
            return
        self.inode_version[ino] += 1  # whatever reuses the slot is not this
        self.readcache.invalidate(ino)
        for page_no in list(self.inode_pages.get(ino, ())):
            self.clear_page_owner(page_no)
        self._free_slot(ino)
        self._group_snapshots.pop(ino, None)

    def set_page_owner(self, page_no: int, ino: int) -> None:
        """Record ``ino`` as the owner of ``page_no`` (moving it if owned)."""
        prev = self._page_owner.get(page_no)
        if prev == ino:
            return
        if prev is not None:
            self.clear_page_owner(page_no)
        self._page_owner[page_no] = ino
        self.inode_pages.setdefault(ino, set()).add(page_no)

    def clear_page_owner(self, page_no: int) -> None:
        """Forget who owns ``page_no`` (no-op when nobody does)."""
        prev = self._page_owner.pop(page_no, None)
        if prev is None:
            return
        pages = self.inode_pages[prev]
        pages.discard(page_no)
        if not pages:
            del self.inode_pages[prev]

    def _snapshot(self, ino: int) -> Snapshot:
        """Capture the inode's full verified core state (rollback point)."""
        rec_bytes = self.device.load(self.geom.inode_off(ino), InodeRecord.SIZE)
        rec = InodeRecord.unpack(rec_bytes)
        pages: Dict[int, bytes] = {}
        if rec.valid:
            try:
                page_list = self.core.owned_pages(rec)
            except ChainCorrupt:
                page_list = []  # unparseable (it will fail verification)
            for page_no in page_list:
                pages[page_no] = self.device.load(self.geom.page_off(page_no), 4096)
        snap = Snapshot(ino=ino, record=rec_bytes, pages=pages)
        self.stats.snapshots += 1
        self.stats.snapshot_bytes += snap.nbytes
        return snap

    # ------------------------------------------------------------------ #
    # Audit (test/diagnostic helper)
    # ------------------------------------------------------------------ #

    def fsck(self, *, repair: bool = False):
        """Whole-volume check of this kernel's device (``repro.fsck``).

        Complements :meth:`audit_tree` (which checks the DRAM shadow table)
        and the per-inode verifier: fsck re-derives everything from durable
        core state alone.  Returns the :class:`~repro.fsck.FsckReport`.
        Imported lazily — ``repro.fsck`` sits above the kernel layer.
        """
        from repro.fsck import run_fsck

        return run_fsck(self.device, repair=repair)

    def audit_tree(self) -> List[AuditIssue]:
        """Check the shadow table itself forms a connected tree."""
        issues: List[AuditIssue] = []
        for ino, sh in self.shadow.items():
            # Walk parent pointers; more hops than inodes means a cycle.
            node: Optional[int] = ino
            hops = 0
            while node is not None:
                if node == ROOT_INO:
                    break
                parent_sh = self.shadow.get(node)
                if parent_sh is None or parent_sh.parent is None:
                    if node != ROOT_INO:
                        issues.append(
                            AuditIssue("orphan", f"inode {ino}: chain dangles at {node}")
                        )
                    break
                node = parent_sh.parent
                hops += 1
                if hops > len(self.shadow):
                    issues.append(AuditIssue("cycle", f"inode {ino} is on a parent cycle"))
                    break
            for name, child in sh.children.items():
                if child not in self.shadow:
                    issues.append(
                        AuditIssue("dangling-child", f"{ino}:{name!r} -> missing {child}")
                    )
        return issues
