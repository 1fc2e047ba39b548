"""Phase 3 — applying the paper's corruption-resolution policies.

Two families of repair, matching §3.3 of the paper and the kernel's own
recovery behaviour:

* **truncate to a consistent prefix** — logs and chains are append-only,
  so anything behind a torn link or a committed-but-garbage record can be
  cut off without losing committed data: tombstone torn/dangling/duplicate
  dentries in place, cut chains at the last good page, clamp file sizes to
  mapped capacity;
* **quarantine** — a valid but unreachable inode is *reconnected* under
  ``/lost+found`` (created on demand) instead of being wiped, the
  conservative alternative to the mount-time recovery's reclaim.

Some repairs only expose the next layer of damage (cutting a cycle creates
an orphan root; truncating a chain leaks its pages), so the runner applies
repairs and re-checks in passes until the volume is clean.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.corestate import CoreState, DentryLoc
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
)
from repro.pm.allocator import PageAllocator
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

#: Order repairs are applied in within one pass: the pending-transaction
#: replay first (it rewrites volume state wholesale, so the pass stops
#: right after it — see :meth:`Repairer.apply`), then structural fixes
#: (so the allocator the quarantine step builds sees a sane bitmap), then
#: dentry tombstones, then record fields, then reconnection.
_REPAIR_ORDER = (
    F_TX_TORN,
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
)

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

    # ------------------------------------------------------------------ #

    def apply(self, findings: Iterable[Finding]) -> Dict[str, int]:
        """Apply every repairable finding; returns repairs-per-class."""
        applied: Dict[str, int] = {}
        ordered = sorted(
            (f for f in findings if f.repairable),
            key=lambda f: _REPAIR_ORDER.index(f.cls),
        )
        tombstoned = False
        for f in ordered:
            handler = self._HANDLERS.get(f.cls)
            if handler is None:
                continue
            if handler(self, f):
                applied[f.cls] = applied.get(f.cls, 0) + 1
                tombstoned |= handler is Repairer._tombstone
                if f.cls == F_TX_TORN:
                    # Replaying the pending transaction rewrote volume
                    # state wholesale; every other finding from this pass
                    # is stale.  Stop here — the runner re-checks.
                    break
        if tombstoned:
            self.device.sfence()  # one fence for the pass's tombstones
        return applied

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    def _tombstone(self, f: Finding) -> bool:
        loc = DentryLoc(f.meta["tail"] if "tail" in f.meta else -1,
                        f.meta["loc_page"], f.meta["loc_off"])
        self.core.tombstone(loc)
        return True

    def _set_bitmap_bit(self, page_no: int, value: bool) -> None:
        idx = page_no - 1
        addr = self.geom.bitmap_off + (idx >> 3)
        byte = self.device.load(addr, 1)[0]
        if value:
            byte |= 1 << (idx & 7)
        else:
            byte &= ~(1 << (idx & 7))
        self.device.store(addr, bytes([byte]))
        self.device.persist(addr, 1)

    def _truncate_chain(self, f: Finding) -> bool:
        """Cut a log/index chain at its last good page (consistent prefix)."""
        kind = f.meta["kind"]
        last_good = f.meta.get("last_good", 0)
        if kind == "data":
            # Zero the out-of-range slot; the committed prefix before it
            # stays, the size clamp lands on the next pass if needed.
            self.device.store(f.meta["slot_addr"], b"\0" * 8)
            self.device.persist(f.meta["slot_addr"], 8)
            return True
        self.core.cut_chain(f.ino, last_good,
                            f.meta["tail"] if kind == "tail" else None)
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
        for ino in range(self.geom.inode_count):
            if not self.core.read_inode(ino).valid:
                return ino
        return None

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
        if existing is not None \
                and self.core.read_inode(existing.ino).valid \
                and self.core.read_inode(existing.ino).is_dir:
            self._lost_found = existing.ino
            return existing.ino
        ino = self._free_inode_slot()
        if ino is None:
            return None
        old = self.core.read_inode(ino)
        rec = InodeRecord(
            magic=INODE_MAGIC, itype=ITYPE_DIR, mode=0o700, uid=0,
            gen=old.gen + 1, size=0, nlink=2, seq=0, index_root=0,
            tails=[0] * NTAILS,
        )
        self.core.write_inode(ino, rec)
        self._append_entry(self.root_ino, LOST_FOUND, ino, rec.gen,
                           ITYPE_DIR, seq=1)
        self._lost_found = ino
        return ino

    # ------------------------------------------------------------------ #
    # Per-class handlers
    # ------------------------------------------------------------------ #

    def _repair_tx_torn(self, f: Finding) -> bool:
        from repro.tx.log import clear_seal

        if not f.meta.get("valid"):
            # Discard: the seal references an unparseable chain.  Clearing
            # the head turns its pages into plain leaks, which the leak
            # pass reclaims on the next check/repair round.
            clear_seal(self.device)
            return True
        # Replay through mount-time recovery — the one sanctioned replayer
        # — which applies every record idempotently and checkpoints the
        # log.  If the volume is too damaged to mount, degrade to discard
        # so repair still converges (the transaction's effects are lost,
        # but all-or-nothing is preserved: "none").
        from repro.errors import ReproError, SimulatedFault
        from repro.kernel.controller import KernelController

        try:
            KernelController.mount(self.device)
        except (ReproError, SimulatedFault, ValueError):
            clear_seal(self.device)
        return True

    def _repair_superblock(self, f: Finding) -> bool:
        if f.meta.get("kind") != "root":
            return False  # an unformatted device is beyond repair
        old = self.core.read_inode(self.root_ino)
        rec = InodeRecord(
            magic=INODE_MAGIC, itype=ITYPE_DIR, mode=0o777, uid=0,
            gen=old.gen + 1, size=0, nlink=2, seq=0, index_root=0,
            tails=[0] * NTAILS,
        )
        self.core.write_inode(self.root_ino, rec)
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

    def _repair_page_leak(self, f: Finding) -> bool:
        self._set_bitmap_bit(f.page, False)
        return True

    def _repair_page_reserved(self, f: Finding) -> bool:
        # Reclaim the reservation: scrub the tag first so a crash between
        # the two steps degrades to a plain leak, never a stale tag on a
        # free page.
        from repro.pm.allocator import RESERVATION_TAG
        addr = self.geom.page_off(f.page)
        self.device.store(addr, b"\0" * len(RESERVATION_TAG))
        self.device.persist(addr, len(RESERVATION_TAG))
        self._set_bitmap_bit(f.page, False)
        return True

    def _repair_page_unallocated(self, f: Finding) -> bool:
        self._set_bitmap_bit(f.page, True)
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
        # the fragment; clearing the bit is always safe.
        self._set_bitmap_bit(f.meta["bit"] + 1, False)
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
        F_TX_TORN: _repair_tx_torn,
        F_SUPERBLOCK: _repair_superblock,
        F_CHAIN_CORRUPT: _truncate_chain,
        F_BAD_PAGE_KIND: _repair_bad_kind,
        F_PAGE_DOUBLE_USE: _repair_double_use,
        F_PAGE_LEAK: _repair_page_leak,
        F_PAGE_RESERVED: _repair_page_reserved,
        F_PAGE_UNALLOCATED: _repair_page_unallocated,
        F_TORN_DENTRY: _tombstone,
        F_DANGLING_DENTRY: _tombstone,
        F_DUPLICATE_DENTRY: _tombstone,
        F_DIR_CYCLE: _tombstone,
        F_SIZE_MISMATCH: _repair_size,
        F_NLINK_MISMATCH: _repair_nlink,
        F_ORPHAN_INODE: _repair_orphan,
        F_STRIPE_ORPHAN: _repair_stripe_orphan,
        F_STRIPE_LABEL: _repair_stripe_label,
    }
