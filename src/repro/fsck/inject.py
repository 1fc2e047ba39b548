"""Corruption injectors: one per finding class, for tests and the CLI.

Each injector takes a (populated) device and plants exactly one instance
of its corruption class by editing PM core state directly — the same
fingerprints the six Table-1 bugs leave, but deterministic and cheap.
``INJECTORS`` maps the injector name to ``(fn, expected_class)``; tests
parametrize over it to prove that ``repro fsck`` detects every class and
that ``--repair`` restores a clean volume.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.corestate import CoreState
from repro.core.mkfs import ROOT_INO, load_geometry
from repro.fsck import findings as F
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import (
    DENTRY_HEADER,
    INODE_MAGIC,
    ITYPE_DIR,
    ITYPE_FILE,
    NTAILS,
    PAGE_KIND_DIRLOG,
    PAGEHDR_SIZE,
    InodeRecord,
    PageHeader,
)


def _env(device: PMDevice):
    geom = load_geometry(device)
    return CoreState(device, geom), geom


def _find_file(core: CoreState, geom, *, with_data: bool = False,
               skip: int = 0) -> int:
    """Lowest-numbered valid regular file (optionally with data pages)."""
    found = 0
    for ino in range(geom.inode_count):
        rec = core.read_inode(ino)
        if rec.valid and rec.itype == ITYPE_FILE:
            if with_data and not rec.index_root:
                continue
            if found == skip:
                return ino
            found += 1
    raise RuntimeError("populated volume has no suitable file")


def _find_dir(core: CoreState, geom, *, skip: int = 0) -> int:
    found = 0
    for ino in range(geom.inode_count):
        if ino == ROOT_INO:
            continue
        rec = core.read_inode(ino)
        if rec.valid and rec.is_dir:
            if found == skip:
                return ino
            found += 1
    raise RuntimeError("populated volume has no subdirectory")


def _root_dentry_loc(core: CoreState, name: Optional[bytes] = None):
    root = core.read_inode(ROOT_INO)
    entries = core.live_dentries_with_loc(root)
    if name is not None:
        return entries[name], name
    pick = sorted(entries)[0]
    return entries[pick], pick


def _append(core: CoreState, geom, dir_ino: int, name: bytes, child_ino: int,
            child_gen: int, itype: int, seq: int) -> None:
    rec = core.read_inode(dir_ino)
    cursor, _ = core.scan_tail(rec.tails[0])
    core.append_dentry(dir_ino, rec, 0, cursor, name, child_ino, child_gen,
                       itype, seq, PageAllocator(core.mem, geom, pool_pages=1),
                       fence_before_marker=True)


# --------------------------------------------------------------------------- #
# Injectors
# --------------------------------------------------------------------------- #


def inject_torn_dentry(device: PMDevice) -> None:
    """A committed marker over a never-persisted body (§4.2's fingerprint)."""
    core, geom = _env(device)
    (d, loc), _name = _root_dentry_loc(core)
    addr = geom.page_off(loc.page_no) + loc.offset + DENTRY_HEADER
    device.store(addr, b"\0" * d.name_len)
    device.persist(addr, d.name_len)


def inject_dangling_dentry(device: PMDevice) -> None:
    """A live dentry whose target inode record never persisted (§4.2):
    wipe a referenced file's record, leaving its dentry behind."""
    core, geom = _env(device)
    ino = _find_file(core, geom)
    rec = core.read_inode(ino)
    rec.magic = 0
    core.write_inode(ino, rec)


def inject_duplicate_dentry(device: PMDevice) -> None:
    """The same inode live under two directories (§4.1's rollback residue)."""
    core, geom = _env(device)
    (d, _loc), name = _root_dentry_loc(core)
    target = _find_dir(core, geom)
    if target == d.ino:
        target = _find_dir(core, geom, skip=1)
    _append(core, geom, target, b"dup-" + name, d.ino, d.gen, d.itype,
            seq=d.seq + 1)


def inject_orphan_inode(device: PMDevice) -> None:
    """A valid record no directory references (§4.3's lost creat)."""
    core, geom = _env(device)
    for ino in range(geom.inode_count - 1, -1, -1):
        if not core.read_inode(ino).valid:
            rec = InodeRecord(
                magic=INODE_MAGIC, itype=ITYPE_FILE, mode=0o644, uid=1000,
                gen=7, size=0, nlink=1, seq=0, index_root=0,
                tails=[0] * NTAILS,
            )
            core.write_inode(ino, rec)
            return
    raise RuntimeError("no free inode slot")


def inject_dir_cycle(device: PMDevice) -> None:
    """Two directories that are each other's parent, detached from the
    root — what the §4.6 / §3.1 concurrent renames leave behind."""
    core, geom = _env(device)
    a = _find_dir(core, geom, skip=0)
    b = _find_dir(core, geom, skip=1)
    root = core.read_inode(ROOT_INO)
    for name, (d, loc) in core.live_dentries_with_loc(root).items():
        if d.ino in (a, b):
            core.tombstone(loc)
    rec_a = core.read_inode(a)
    rec_b = core.read_inode(b)
    _append(core, geom, a, b"loop-b", b, rec_b.gen, ITYPE_DIR, seq=1)
    _append(core, geom, b, b"loop-a", a, rec_a.gen, ITYPE_DIR, seq=1)


def inject_page_leak(device: PMDevice) -> None:
    """An allocated bit with no owner (a crashed mid-creat allocation)."""
    core, geom = _env(device)
    PageAllocator(device, geom, pool_pages=1).alloc()


def inject_page_reserved(device: PMDevice) -> None:
    """A tagged pool reservation never handed out — a crashed (or merely
    warm) per-thread pool: a refill of exactly one page that its caller
    takes none of, so the page is pooled and tagged."""
    core, geom = _env(device)
    PageAllocator(device, geom, pool_pages=1)._refill(1, 0)


def inject_page_unallocated(device: PMDevice) -> None:
    """A page in use whose bitmap bit is clear."""
    core, geom = _env(device)
    ino = _find_file(core, geom, with_data=True)
    rec = core.read_inode(ino)
    page_no = rec.index_root
    idx = page_no - 1
    addr = geom.bitmap_off + (idx >> 3)
    byte = device.load(addr, 1)[0] & ~(1 << (idx & 7))
    device.store(addr, bytes([byte]))
    device.persist(addr, 1)


def inject_page_double_use(device: PMDevice) -> None:
    """Two files cross-linked onto one data page."""
    core, geom = _env(device)
    a = _find_file(core, geom, with_data=True, skip=0)
    b = _find_file(core, geom, with_data=True, skip=1)
    rec_a = core.read_inode(a)
    rec_b = core.read_inode(b)
    page_of_a = core.file_pages(rec_a)[0]
    core.store_index_slots([rec_b.index_root], 0, [page_of_a])
    device.sfence()


def inject_chain_corrupt(device: PMDevice) -> None:
    """A directory-log chain pointing past the end of the device."""
    core, geom = _env(device)
    root = core.read_inode(ROOT_INO)
    head = next(h for h in root.tails if h)
    last_page = [p for p, _hdr in core.walk_chain(head)][-1]
    core.link_page(last_page, geom.page_count + 5)


def inject_bad_page_kind(device: PMDevice) -> None:
    """An index page masquerading as a directory-log page."""
    core, geom = _env(device)
    ino = _find_file(core, geom, with_data=True)
    rec = core.read_inode(ino)
    off = geom.page_off(rec.index_root)
    hdr = PageHeader.unpack(device.load(off, PAGEHDR_SIZE))
    hdr.kind = PAGE_KIND_DIRLOG
    device.store(off, hdr.pack())
    device.persist(off, PAGEHDR_SIZE)


def inject_size_mismatch(device: PMDevice) -> None:
    """A committed size beyond the file's mapped capacity."""
    core, geom = _env(device)
    ino = _find_file(core, geom, with_data=True)
    core.set_file_size(ino, 1 << 30)


def inject_nlink_mismatch(device: PMDevice) -> None:
    core, geom = _env(device)
    ino = _find_file(core, geom)
    rec = core.read_inode(ino)
    rec.nlink = 7
    core.write_inode(ino, rec)


def inject_stripe_orphan(device: PMDevice) -> None:
    """Set a bitmap bit past the last stripe slot: a fragment that maps to
    no (device, offset) and that no inode can ever claim.  The geometry
    always keeps slack bits (the bitmap is sized for raw capacity), so this
    works on flat volumes too."""
    _core, geom = _env(device)
    bit = geom.page_count  # first bit past the last real page
    addr = geom.bitmap_off + (bit >> 3)
    byte = device.load(addr, 1)[0] | (1 << (bit & 7))
    device.store(addr, bytes([byte]))
    device.persist(addr, 1)


def inject_stripe_label(device: PMDevice) -> None:
    """Corrupt member 1's array label (multi-device volumes only)."""
    from repro.pm.layout import ArrayLabel

    _core, geom = _env(device)
    if geom.devices < 2:
        raise RuntimeError("stripe-label injection needs a multi-device volume")
    bad = ArrayLabel(device_index=1, device_count=geom.devices + 1,
                     stripe_pages=geom.stripe_pages, dev_size=geom.dev_size)
    device.store(geom.dev_size, bad.pack())
    device.persist(geom.dev_size, ArrayLabel.SIZE)


#: name -> (injector, expected finding class)
INJECTORS: Dict[str, Tuple[Callable[[PMDevice], None], str]] = {
    "torn-dentry": (inject_torn_dentry, F.F_TORN_DENTRY),
    "dangling-dentry": (inject_dangling_dentry, F.F_DANGLING_DENTRY),
    "duplicate-dentry": (inject_duplicate_dentry, F.F_DUPLICATE_DENTRY),
    "orphan-inode": (inject_orphan_inode, F.F_ORPHAN_INODE),
    "dir-cycle": (inject_dir_cycle, F.F_DIR_CYCLE),
    "page-leak": (inject_page_leak, F.F_PAGE_LEAK),
    "page-reserved": (inject_page_reserved, F.F_PAGE_RESERVED),
    "page-unallocated": (inject_page_unallocated, F.F_PAGE_UNALLOCATED),
    "page-double-use": (inject_page_double_use, F.F_PAGE_DOUBLE_USE),
    "chain-corrupt": (inject_chain_corrupt, F.F_CHAIN_CORRUPT),
    "bad-page-kind": (inject_bad_page_kind, F.F_BAD_PAGE_KIND),
    "size-mismatch": (inject_size_mismatch, F.F_SIZE_MISMATCH),
    "nlink-mismatch": (inject_nlink_mismatch, F.F_NLINK_MISMATCH),
    # inject_stripe_label is deliberately absent: it needs a multi-device
    # volume, and this registry is parametrized over flat build_volume().
    "stripe-orphan": (inject_stripe_orphan, F.F_STRIPE_ORPHAN),
}
