"""Phase 3 — applying the paper's corruption-resolution policies: the
one repair engine, for ``fsck --repair`` and for mount alike.

Two families of repair, matching §3.3 of the paper:

* **truncate to a consistent prefix** — logs and chains are append-only,
  so anything behind a torn link or a committed-but-garbage record can be
  cut off without losing committed data: tombstone torn/dangling/duplicate
  dentries in place, cut chains at the last good page, clamp file sizes to
  mapped capacity;
* **quarantine** — a valid but unreachable inode is *reconnected* under
  ``/lost+found`` (created on demand) instead of being wiped.

Mount repairs with the same handlers (:class:`MountRepairer`), but only
the classes of :data:`MOUNT_CLASSES`, and it reclaims an orphan where
fsck quarantines one (the orphan rule, beside that constant).

Some repairs only expose the next layer of damage (cutting a cycle creates
an orphan root; truncating a chain leaks its pages), so the runner applies
repairs and re-checks in passes until the volume is clean.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro import obs
from repro.core.corestate import CoreState, DentryLoc
from repro.core.invariants import InodeShape, Namespace, claim_pages, reach
from repro.core.mkfs import ROOT_INO
from repro.fsck.check import check_bitmap
from repro.fsck.findings import (
    F_BAD_PAGE_KIND,
    F_CHAIN_CORRUPT,
    F_DANGLING_DENTRY,
    F_DIR_CYCLE,
    F_DUPLICATE_DENTRY,
    F_NLINK_MISMATCH,
    F_ORPHAN_INODE,
    F_PAGE_DOUBLE_USE,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED,
    F_SIZE_MISMATCH,
    F_STRIPE_LABEL,
    F_STRIPE_ORPHAN,
    F_SUPERBLOCK,
    F_TORN_DENTRY,
    F_TX_TORN,
    Finding,
    FsckReport,
)
from repro.pm.allocator import RESERVATION_TAG, PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import (
    INDEX_SLOTS,
    INODE_MAGIC,
    ITYPE_DIR,
    NTAILS,
    PAGE_SIZE,
    ArrayLabel,
    Geometry,
    InodeRecord,
    PageHeader,
    PAGEHDR_SIZE,
)

#: Order repairs are applied in within one pass: structural fixes first
#: (so the allocator the quarantine step builds sees a sane bitmap), then
#: the bitmap, dentry tombstones, record fields, reconnection, and last
#: the pending-transaction replay (fsck's mounts the volume, so it runs
#: in a pass of its own: ``repro.fsck.runner``).
_REPAIR_ORDER = (
    F_SUPERBLOCK,
    F_STRIPE_LABEL,
    F_STRIPE_ORPHAN,
    F_CHAIN_CORRUPT,
    F_BAD_PAGE_KIND,
    F_PAGE_DOUBLE_USE,
    F_PAGE_UNALLOCATED,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_TORN_DENTRY,
    F_DANGLING_DENTRY,
    F_DUPLICATE_DENTRY,
    F_DIR_CYCLE,
    F_SIZE_MISMATCH,
    F_NLINK_MISMATCH,
    F_ORPHAN_INODE,
    F_TX_TORN,
)

#: The classes mount repairs before an application attaches (of
#: ``chain-corrupt``, a reachable directory's tail only: :func:`mount_takes`);
#: the rest are fsck's, and the fence audit's §4.2 rows exist only because
#: mount leaves them.  Mount also trims each file it keeps to its size.
#:
#: The orphan rule.  **Mount reclaims an orphan** (its subtree's records
#: and pages): a crash leaves one only inside a create's window or an
#: unlink's unfenced record free (``LibFS._free_file_inode``), and a
#: quarantine would put ``/lost+found`` entries into the fence audit's
#: unlink and rmdir "every fence taken" images.  **``fsck --repair``
#: quarantines an orphan** under ``/lost+found``: offline, a crash's
#: orphan and a file a bug detached (§4.3) look alike.
MOUNT_CLASSES = frozenset({
    F_DUPLICATE_DENTRY, F_CHAIN_CORRUPT, F_PAGE_LEAK, F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED, F_ORPHAN_INODE, F_TX_TORN})


def mount_takes(f: Finding, ns: Namespace) -> bool:
    """Whether mount repairs ``f`` of its check that judged ``ns`` (the
    bitmap's classes as :meth:`MountRepairer.plan` re-checks them)."""
    if f.cls == F_CHAIN_CORRUPT:
        return f.meta["kind"] == "tail" and f.ino in ns.reachable
    return f.cls in MOUNT_CLASSES


#: The bitmap's classes: their repairs land together (:meth:`Repairer._settle`).
_BITMAP_CLASSES = frozenset({F_PAGE_LEAK, F_PAGE_RESERVED, F_PAGE_UNALLOCATED})

LOST_FOUND = b"lost+found"


class Repairer:
    """Applies repairs for one pass of findings against the raw device."""

    def __init__(self, device: PMDevice, geom: Geometry, root_ino: int):
        self.device = device
        self.geom = geom
        self.root_ino = root_ino
        self.core = CoreState(device, geom)
        self._alloc: Optional[PageAllocator] = None
        self._lost_found: Optional[int] = None
        #: the bitmap's repairs of this pass, landed by :meth:`_settle`.
        self._claim: Set[int] = set()
        self._release: Set[int] = set()
        self._scrub: Set[int] = set()
        #: stores that wait on a fence (tombstones, record wipes).
        self._owed = False

    # ------------------------------------------------------------------ #

    def apply(self, findings: Iterable[Finding]) -> Dict[str, int]:
        """Apply every repairable finding; returns repairs-per-class."""
        applied: Dict[str, int] = {}
        ordered = sorted(
            (f for f in findings if f.repairable),
            key=lambda f: _REPAIR_ORDER.index(f.cls),
        )
        for f in ordered:
            handler = self._HANDLERS.get(f.cls)
            if handler is None:
                continue
            if f.cls in (F_ORPHAN_INODE, F_TX_TORN) and (self._claim or self._release):
                self._settle()  # they may allocate: the bitmap lands first
            if handler(self, f):
                applied[f.cls] = applied.get(f.cls, 0) + 1
        self._settle()
        return applied

    def _settle(self) -> None:
        """Land the pass's repairs so far: scrub released reservations'
        tags, fence, then change every bit in one allocator rebuild, whose
        fence covers the tombstones and wipes too.  A crash in between
        leaves at worst a plain leak, never a tag on a free page."""
        if self._scrub:
            for page_no in sorted(self._scrub):
                addr = self.geom.page_off(page_no)
                self.device.store(addr, bytes(len(RESERVATION_TAG)))
                self.device.clwb(addr, len(RESERVATION_TAG))
            self.device.sfence()
        if self._claim or self._release:
            alloc = self._allocator()
            alloc.rebuild((alloc.allocated_set() | self._claim) - self._release)
        elif self._owed:
            self.device.sfence()
        self._claim, self._release, self._scrub = set(), set(), set()
        self._owed = False

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    def _tombstone(self, f: Finding) -> bool:
        loc = DentryLoc(f.meta["tail"] if "tail" in f.meta else -1,
                        f.meta["loc_page"], f.meta["loc_off"])
        self.core.tombstone(loc)
        self._owed = True
        return True

    def _truncate_chain(self, f: Finding) -> bool:
        """Cut a log/index chain after its last good page (0 empties it, a
        file's size with it): its consistent prefix.  Persisted."""
        kind, last_good = f.meta["kind"], f.meta.get("last_good", 0)
        if kind == "data":
            # Zero the out-of-range slot; the committed prefix before it
            # stays, the size clamp lands on the next pass if needed.
            self.device.store(f.meta["slot_addr"], b"\0" * 8)
            self.device.persist(f.meta["slot_addr"], 8)
        elif last_good:
            self.core.link_page(last_good, 0)
        else:
            rec = self.core.read_inode(f.ino)
            if kind == "tail":
                rec.tails[f.meta["tail"]] = 0
            else:
                rec.index_root = rec.size = 0
            self.core.write_inode(f.ino, rec)
        return True

    # ------------------------------------------------------------------ #
    # lost+found plumbing (quarantine)
    # ------------------------------------------------------------------ #

    def _allocator(self) -> PageAllocator:
        if self._alloc is None:
            # pool_pages=1: a one-page refill hands out everything it
            # reserves, so the repairer strands no tagged reservation on
            # the volume it is cleaning.
            self._alloc = PageAllocator(self.device, self.geom, pool_pages=1)
        return self._alloc

    def _free_inode_slot(self) -> Optional[int]:
        return next((ino for ino in range(self.geom.inode_count)
                     if not self.core.read_inode(ino).valid), None)

    def _append_entry(self, dir_ino: int, name: bytes, child_ino: int,
                      child_gen: int, itype: int, seq: int) -> None:
        rec = self.core.read_inode(dir_ino)
        cursor, _records = self.core.scan_tail(rec.tails[0])
        self.core.append_dentry(
            dir_ino, rec, 0, cursor, name, child_ino, child_gen, itype, seq,
            self._allocator(), fence_before_marker=True,
        )

    def _ensure_lost_found(self) -> Optional[int]:
        """``/lost+found``'s inode, made if missing; None when it is missing
        and no inode slot is free to make it in."""
        if self._lost_found is not None:
            return self._lost_found
        root = self.core.read_inode(self.root_ino)
        existing = self.core.live_dentries(root).get(LOST_FOUND)
        rec = existing and self.core.read_inode(existing.ino)
        if rec and rec.valid and rec.is_dir:
            self._lost_found = existing.ino
            return existing.ino
        ino = self._free_inode_slot()
        if ino is None:
            return None
        gen = self._new_dir(ino, 0o700)
        self._append_entry(self.root_ino, LOST_FOUND, ino, gen, ITYPE_DIR, seq=1)
        self._lost_found = ino
        return ino

    def _new_dir(self, ino: int, mode: int) -> int:
        """Write an empty directory's record over slot ``ino``; its gen."""
        gen = self.core.read_inode(ino).gen + 1
        self.core.write_inode(ino, InodeRecord(
            magic=INODE_MAGIC, itype=ITYPE_DIR, mode=mode, uid=0, gen=gen,
            size=0, nlink=2, seq=0, index_root=0, tails=[0] * NTAILS))
        return gen

    # ------------------------------------------------------------------ #
    # Per-class handlers
    # ------------------------------------------------------------------ #

    def _repair_tx_torn(self, f: Finding) -> bool:
        # Mount replays or discards the log (MountRepairer below).  If the
        # volume cannot mount, discard: all-or-nothing still holds.
        from repro.errors import ReproError, SimulatedFault
        from repro.kernel.controller import KernelController
        from repro.tx.log import seal

        try:
            KernelController.mount(self.device)
        except (ReproError, SimulatedFault, ValueError):
            seal(self.device, 0, 0)
        return True

    def _repair_superblock(self, f: Finding) -> bool:
        if f.meta.get("kind") != "root":
            return False  # an unformatted device is beyond repair
        self._new_dir(self.root_ino, 0o777)
        return True

    def _repair_double_use(self, f: Finding) -> bool:
        # The lower-numbered claimant keeps the page; the loser's structure
        # is truncated just before it (same consistent-prefix policy).
        return self._truncate_chain(f) if f.meta["kind"] != "data" else \
            self._zero_data_slot(f)

    def _zero_data_slot(self, f: Finding) -> bool:
        rec = self.core.read_inode(f.meta["loser"])
        slot = f.meta["slot"]
        chain = self.core.index_pages(rec)
        if slot >= len(chain) * INDEX_SLOTS:
            return False
        self.core.store_index_slots(chain, slot, [0])
        self.device.sfence()
        if rec.size > slot * PAGE_SIZE:
            self.core.set_file_size(f.meta["loser"], slot * PAGE_SIZE)
        return True

    def _repair_bitmap(self, f: Finding) -> bool:
        # Queued for _settle: a leak's bit clears, a reservation's too once
        # its tag is scrubbed, an unallocated page's bit sets.
        if f.cls == F_PAGE_UNALLOCATED:
            self._claim.add(f.page)
        else:
            self._release.add(f.page)
            if f.cls == F_PAGE_RESERVED:
                self._scrub.add(f.page)
        return True

    def _repair_bad_kind(self, f: Finding) -> bool:
        off = self.geom.page_off(f.page)
        hdr = PageHeader.unpack(self.device.load(off, PAGEHDR_SIZE))
        hdr.kind = f.meta["expected"]
        self.device.store(off, hdr.pack())
        self.device.persist(off, PAGEHDR_SIZE)
        return True

    def _repair_size(self, f: Finding) -> bool:
        self.core.set_file_size(f.ino, f.meta["capacity"])
        return True

    def _repair_nlink(self, f: Finding) -> bool:
        rec = self.core.read_inode(f.ino)
        rec.nlink = f.meta["expected"]
        self.core.write_inode(f.ino, rec)
        return True

    def _repair_orphan(self, f: Finding) -> bool:
        rec = self.core.read_inode(f.ino)
        if not rec.valid:
            return False
        lf = self._ensure_lost_found()
        if lf is None:
            return False  # a full inode table: reported, not repaired
        name = b"ino%d.g%d" % (f.ino, rec.gen)
        self._append_entry(lf, name, f.ino, rec.gen, rec.itype, seq=1)
        return True

    def _repair_stripe_orphan(self, f: Finding) -> bool:
        # The bit indexes past the last stripe slot, so no inode can claim
        # the fragment (nor does the allocator cover it); clearing the bit
        # is always safe.
        bit = f.meta["bit"]
        addr = self.geom.bitmap_off + (bit >> 3)
        byte = self.device.load(addr, 1)[0] & ~(1 << (bit & 7))
        self.device.store(addr, bytes([byte]))
        self.device.persist(addr, 1)
        return True

    def _repair_stripe_label(self, f: Finding) -> bool:
        # The superblock is the authority (it carried the mount); restamp
        # the member's label from the live geometry.
        d = f.meta["device"]
        label = ArrayLabel(device_index=d, device_count=self.geom.devices,
                           stripe_pages=self.geom.stripe_pages,
                           dev_size=self.geom.dev_size)
        addr = d * self.geom.dev_size
        self.device.store(addr, label.pack())
        self.device.persist(addr, ArrayLabel.SIZE)
        return True

    _HANDLERS = {
        F_SUPERBLOCK: _repair_superblock,
        F_CHAIN_CORRUPT: _truncate_chain,
        F_BAD_PAGE_KIND: _repair_bad_kind,
        F_PAGE_DOUBLE_USE: _repair_double_use,
        F_PAGE_LEAK: _repair_bitmap,
        F_PAGE_RESERVED: _repair_bitmap,
        F_PAGE_UNALLOCATED: _repair_bitmap,
        F_TORN_DENTRY: _tombstone,
        F_DANGLING_DENTRY: _tombstone,
        F_DUPLICATE_DENTRY: _tombstone,
        F_DIR_CYCLE: _tombstone,
        F_SIZE_MISMATCH: _repair_size,
        F_NLINK_MISMATCH: _repair_nlink,
        F_ORPHAN_INODE: _repair_orphan,
        F_STRIPE_ORPHAN: _repair_stripe_orphan,
        F_STRIPE_LABEL: _repair_stripe_label,
        F_TX_TORN: _repair_tx_torn,
    }


class MountRepairer(Repairer):
    """Mount's repairs of its own check: :meth:`plan` picks the findings of
    :data:`MOUNT_CLASSES`, :meth:`apply` runs fsck's handlers on them but
    reclaims an orphan and replays a pending transaction on ``kernel``,
    whose allocator the bitmap repairs go through."""

    def __init__(self, kernel):
        super().__init__(kernel.device, kernel.geom, ROOT_INO)
        self.kernel = kernel
        self._alloc = kernel.alloc
        #: each orphan root's subtree, which its reclaim wipes.
        self.reclaimed: Dict[int, Set[int]] = {}

    def plan(self, report: FsckReport, shapes: Dict[int, InodeShape],
             ns: Namespace) -> List[Finding]:
        """The findings mount repairs of ``report``, its check that judged
        ``shapes`` (kept files trimmed since) into ``ns``; stores nothing.
        The bitmap is re-checked against the pages left once the orphans
        are reclaimed, as fsck's next pass would: a reclaimed orphan's or
        trimmed file's pages are ``page-leak`` repairs not in ``report``."""
        picked = []
        for f in report.findings:
            if f.cls in _BITMAP_CLASSES or not mount_takes(f, ns):
                continue
            if f.cls == F_ORPHAN_INODE:
                self.reclaimed[f.ino] = reach(ns.children, f.ino)
            picked.append(f)
        gone = set().union(*self.reclaimed.values())
        claims, _doubles = claim_pages(
            s for ino, s in shapes.items() if ino not in gone)
        for f in report.by_class(F_TX_TORN):
            for page_no in f.meta["pages"]:
                claims.setdefault(page_no, (-1, "txlog"))
        return picked + [f for f in check_bitmap(self.device, self.geom, claims)
                         if f.cls in _BITMAP_CLASSES]

    def _reclaim_orphan(self, f: Finding) -> bool:
        for ino in sorted(self.reclaimed[f.ino]):
            self.core.free_inode(ino)
        self._owed = True
        return True

    def _replay_tx(self, f: Finding) -> bool:
        """Replay a valid log through a root-privileged internal LibFS, or
        discard a corrupt one (torn chain, bad CRC, a CRC that is not the
        seal's tag), then retire it, recycling none of its pages: a
        repaired volume keeps no reservation.  Only pages the rebuilt tables gave
        no owner are freed: a stale or forged head can reach a live
        file's page, whose bytes may look like a log page."""
        from repro.libfs.libfs import LibFS
        from repro.tx.log import parse_log, retire
        from repro.tx.recovery import apply_records

        kernel = self.kernel
        log, pages = parse_log(self.device, self.geom)
        if log is not None:
            with obs.span("tx.replay", category="tx", records=len(log.records)):
                fs = LibFS(kernel, "@tx-recovery", uid=0)
                try:
                    apply_records(fs, log.records)
                finally:
                    fs.shutdown()
        retire(self.device, kernel.alloc, [
            p for p in pages if kernel.alloc.is_allocated(p)
            and p not in kernel.page_owner], recycle=False)
        return True

    _HANDLERS = {**Repairer._HANDLERS,
                 F_ORPHAN_INODE: _reclaim_orphan,
                 F_TX_TORN: _replay_tx}
