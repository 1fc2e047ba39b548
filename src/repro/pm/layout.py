"""On-PM binary layouts for the ArckFS core state.

The core state — the only thing the integrity verifier trusts as input — is
made of exactly the pieces the paper lists (§2.2): a superblock, a shadow
inode table, and 4 KiB file pages (file data pages, directory-log pages and
file page-index pages).  Everything here is plain ``struct``-packed bytes on
the :class:`~repro.pm.device.PMDevice`; DRAM-side index structures live in
``repro.libfs`` and are rebuilt from these records on every acquire.

Layout summary::

    SUPERBLOCK   64 B at offset 0
    INODE TABLE  ``inode_count`` records of 128 B, at ``itable_off``
    BITMAP       1 bit per page, at ``bitmap_off``
    PAGES        4 KiB each, at ``data_off``

A *dentry* record inside a directory-log page carries its name length in the
``name_len`` field, which doubles as the **commit marker** of the atomic
file-creation protocol (the Trio artifact uses ``dir->name_len`` the same
way; see paper §4.2 footnote 2).  ``name_len == 0`` means the record was
never committed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

PAGE_SIZE = 4096
SB_MAGIC = 0x41524B46_532B5250  # "ARKF S+RP"
INODE_MAGIC = 0xA5C4F51D
INODE_SIZE = 128
NTAILS = 4  # log tails per directory (multi-tailed log, §2.2)

ITYPE_FREE = 0
ITYPE_FILE = 1
ITYPE_DIR = 2

# --------------------------------------------------------------------------- #
# Superblock
# --------------------------------------------------------------------------- #

# magic, size, block, ninodes, itable, bitmap, data, root, tx_log_head,
# devices, stripe_pages
_SB = struct.Struct("<QQIIQQQQQII")

#: Offset of the ``tx_log_head`` field — 8-byte aligned and inside the
#: superblock's first cache line, so a single ``atomic_store`` publishes a
#: sealed transaction log (the one-word commit point of ``repro.tx``).
SB_TX_HEAD_OFF = struct.calcsize("<QQIIQQQQ")

#: The seal word in ``tx_log_head``: the log's head page in the low 32 bits
#: and its *tag*, the payload's body CRC, in the high 32.  The tag lets a
#: seal share the log's fence: a seal that reaches media ahead of a torn
#: log, or over a stale log on reused pages, fails it and is discarded.
_SEAL = struct.Struct("<II")


def pack_seal(head_page: int, tag: int) -> bytes:
    """The 8 bytes of a seal word: ``head_page`` low, ``tag`` high."""
    return _SEAL.pack(head_page, tag)


def unpack_seal(raw: bytes) -> Tuple[int, int]:
    """``(head_page, tag)`` of a seal word; ``(0, 0)`` is "no log"."""
    return _SEAL.unpack(raw)


@dataclass
class Superblock:
    magic: int
    device_size: int
    block_size: int
    inode_count: int
    itable_off: int
    bitmap_off: int
    data_off: int
    root_ino: int
    #: Seal word of a sealed (durable, unapplied) transaction redo log
    #: (:func:`pack_seal`: head page and tag); 0 means none is pending.
    tx_log_head: int = 0
    #: Member count of the device this volume lives on; 1 means one flat
    #: device (the historical layout — every striping field degenerates so
    #: the two are byte-compatible).
    devices: int = 1
    #: Pages per stripe unit (the striping granularity).
    stripe_pages: int = 1

    SIZE = 128

    def pack(self) -> bytes:
        raw = _SB.pack(
            self.magic,
            self.device_size,
            self.block_size,
            self.inode_count,
            self.itable_off,
            self.bitmap_off,
            self.data_off,
            self.root_ino,
            self.tx_log_head,
            self.devices,
            self.stripe_pages,
        )
        return raw.ljust(self.SIZE, b"\0")

    @classmethod
    def unpack(cls, raw: bytes) -> "Superblock":
        fields = _SB.unpack_from(raw)
        return cls(*fields)

    @property
    def valid(self) -> bool:
        return self.magic == SB_MAGIC


# --------------------------------------------------------------------------- #
# Array member labels
# --------------------------------------------------------------------------- #

ARRAY_MAGIC = 0x41524B41_52524159  # "ARKA RRAY"

# magic, device_index, device_count, stripe_pages, pad, dev_size
_LABEL = struct.Struct("<QIIIIQ")


@dataclass
class ArrayLabel:
    """The per-member identity record of a striped multi-device array.

    Device 0 of an array carries the real superblock; every other member
    reserves the same ``data_off`` metadata region and stamps this label at
    its base instead.  fsck cross-checks each label against the superblock
    (the ``stripe-label`` finding class), so a member swapped in from a
    different array — or a label clobbered by a stray write — is caught
    before its stripe units are trusted.
    """

    device_index: int
    device_count: int
    stripe_pages: int
    dev_size: int
    magic: int = ARRAY_MAGIC

    SIZE = 64

    def pack(self) -> bytes:
        raw = _LABEL.pack(self.magic, self.device_index, self.device_count,
                          self.stripe_pages, 0, self.dev_size)
        return raw.ljust(self.SIZE, b"\0")

    @classmethod
    def unpack(cls, raw: bytes) -> "ArrayLabel":
        magic, idx, count, stripe, _pad, dev_size = _LABEL.unpack_from(raw)
        return cls(idx, count, stripe, dev_size, magic)

    @property
    def valid(self) -> bool:
        return self.magic == ARRAY_MAGIC


# --------------------------------------------------------------------------- #
# Inode records
# --------------------------------------------------------------------------- #

#: magic u32, itype u8, pad u8, mode u16, uid u32, gen u32,
#: size u64, nlink u32, seq u32, index_root u64, tails 4*u64
_INODE = struct.Struct("<IBBHIIQIIQ" + "Q" * NTAILS)


@dataclass
class InodeRecord:
    """The per-inode core-state record the verifier inspects.

    ``gen`` is bumped whenever an inode number is reused so stale dentries
    can be detected; ``seq`` is the dentry sequence counter used to resolve
    duplicate dentries left by a crashed rename (newest wins).
    """

    magic: int
    itype: int
    mode: int
    uid: int
    gen: int
    size: int
    nlink: int
    seq: int
    index_root: int
    tails: List[int]

    SIZE = INODE_SIZE

    def pack(self) -> bytes:
        raw = _INODE.pack(
            self.magic,
            self.itype,
            0,
            self.mode,
            self.uid,
            self.gen,
            self.size,
            self.nlink,
            self.seq,
            self.index_root,
            *self.tails,
        )
        return raw.ljust(self.SIZE, b"\0")

    @classmethod
    def unpack(cls, raw: bytes) -> "InodeRecord":
        (magic, itype, _pad, mode, uid, gen, size, nlink, seq, index_root, *tails) = (
            _INODE.unpack_from(raw)
        )
        return cls(magic, itype, mode, uid, gen, size, nlink, seq, index_root, list(tails))

    @classmethod
    def empty(cls) -> "InodeRecord":
        return cls(0, ITYPE_FREE, 0, 0, 0, 0, 0, 0, 0, [0] * NTAILS)

    @property
    def valid(self) -> bool:
        return self.magic == INODE_MAGIC and self.itype in (ITYPE_FILE, ITYPE_DIR)

    @property
    def is_dir(self) -> bool:
        return self.itype == ITYPE_DIR


# Field offsets within an inode record, for targeted persists.
INODE_SIZE_OFF = struct.calcsize("<IBBHII")  # offset of the ``size`` field
INODE_SEQ_OFF = struct.calcsize("<IBBHIIQI")  # offset of the ``seq`` field


# --------------------------------------------------------------------------- #
# Dentries (directory-log records)
# --------------------------------------------------------------------------- #

#: ino u64, gen u32, seq u32, rec_len u16, name_len u16, itype u8, deleted u8, pad u16
_DENTRY = struct.Struct("<QIIHHBBH")
DENTRY_HEADER = _DENTRY.size  # 24 bytes
#: Offset of the ``name_len`` commit marker inside a dentry record.
DENTRY_MARKER_OFF = struct.calcsize("<QIIH")
#: Offset of the ``deleted`` tombstone flag.
DENTRY_DELETED_OFF = struct.calcsize("<QIIHHB")
MAX_NAME = 255


@dataclass
class Dentry:
    ino: int
    gen: int
    seq: int
    rec_len: int
    name_len: int
    itype: int
    deleted: int
    name: bytes

    @staticmethod
    def record_len(name: bytes) -> int:
        """Total record length for ``name``, rounded to 8 bytes."""
        return (DENTRY_HEADER + len(name) + 7) // 8 * 8

    def pack(self) -> bytes:
        raw = _DENTRY.pack(
            self.ino,
            self.gen,
            self.seq,
            self.rec_len,
            self.name_len,
            self.itype,
            self.deleted,
            0,
        )
        return (raw + self.name).ljust(self.rec_len, b"\0")

    @classmethod
    def unpack(cls, raw: bytes) -> "Dentry":
        ino, gen, seq, rec_len, name_len, itype, deleted, _pad = _DENTRY.unpack_from(raw)
        name = bytes(raw[DENTRY_HEADER : DENTRY_HEADER + name_len])
        return cls(ino, gen, seq, rec_len, name_len, itype, deleted, name)

    @property
    def live(self) -> bool:
        """Committed and not tombstoned."""
        return self.name_len > 0 and self.deleted == 0


def legal_name(name: bytes) -> bool:
    """May a committed dentry carry ``name``?  The one rule path
    normalisation, the verifier, mount and fsck share: a path component a
    ``str`` path can address, without the NUL that fsck reads as a dentry
    whose body never persisted."""
    if not name or name in (b".", b"..") or b"/" in name or b"\0" in name:
        return False
    try:
        name.decode()
    except UnicodeDecodeError:
        return False
    return True


# --------------------------------------------------------------------------- #
# Page headers (directory-log pages and file page-index pages)
# --------------------------------------------------------------------------- #

#: next_page u64, used u16, kind u16, pad u32 (:class:`PageHeader`'s bytes;
#: a hot packer uses it directly, with pad 0).
PAGEHDR = struct.Struct("<QHHI")
PAGEHDR_SIZE = 16
PAGE_PAYLOAD = PAGE_SIZE - PAGEHDR_SIZE
PAGE_KIND_DIRLOG = 1
PAGE_KIND_INDEX = 2
PAGE_KIND_TXLOG = 3

#: u64 slots available in a file page-index page.
INDEX_SLOTS = PAGE_PAYLOAD // 8


@dataclass
class PageHeader:
    next_page: int
    used: int
    kind: int

    def pack(self) -> bytes:
        return PAGEHDR.pack(self.next_page, self.used, self.kind, 0)

    @classmethod
    def unpack(cls, raw: bytes) -> "PageHeader":
        next_page, used, kind, _pad = PAGEHDR.unpack_from(raw)
        return cls(next_page, used, kind)


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #


@dataclass
class Geometry:
    """Derived offsets for a device of a given size and inode budget.

    With ``devices > 1`` the volume is striped: the device's flat address
    space is the concatenation of ``devices`` equal members of ``dev_size``
    bytes, every member reserves the first ``data_off`` bytes for metadata
    (member 0 holds the real superblock/inode table/bitmap, the rest carry
    an :class:`ArrayLabel`), and stripe units of ``stripe_pages`` pages
    round-robin across members.  All striping lives in :meth:`page_off`, so
    every consumer of page numbers — allocator, fsck, crash enumeration —
    works unchanged on either shape.
    """

    device_size: int
    inode_count: int
    itable_off: int
    bitmap_off: int
    data_off: int
    page_count: int
    #: Striping shape; ``devices == 1`` is the flat single-device layout.
    devices: int = 1
    stripe_pages: int = 1
    dev_size: int = 0
    pages_per_dev: int = 0

    @classmethod
    def compute(cls, device_size: int, inode_count: int,
                devices: int = 1, stripe_pages: int = 1) -> "Geometry":
        itable_off = Superblock.SIZE
        itable_bytes = inode_count * INODE_SIZE
        bitmap_off = itable_off + itable_bytes
        # Reserve a conservative bitmap region, then fit pages after it.
        approx_pages = max(1, device_size // PAGE_SIZE)
        bitmap_bytes = (approx_pages + 7) // 8
        data_off = bitmap_off + bitmap_bytes
        data_off = (data_off + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        devices = max(1, devices)
        stripe_pages = max(1, stripe_pages)
        if devices == 1:
            page_count = max(0, (device_size - data_off) // PAGE_SIZE)
            dev_size = device_size
            pages_per_dev = page_count
        else:
            dev_size = device_size // devices
            if data_off >= dev_size:
                raise ValueError(
                    f"array members of {dev_size} bytes cannot hold the "
                    f"{data_off}-byte metadata reservation")
            # Whole stripe units only, so the round-robin map is total.
            raw_pages = (dev_size - data_off) // PAGE_SIZE
            pages_per_dev = (raw_pages // stripe_pages) * stripe_pages
            page_count = devices * pages_per_dev
        return cls(device_size, inode_count, itable_off, bitmap_off,
                   data_off, page_count, devices, stripe_pages, dev_size,
                   pages_per_dev)

    @property
    def bitmap_capacity_bytes(self) -> int:
        """Bytes of the reserved bitmap region (covers ``approx_pages``,
        which always exceeds ``page_count`` — the slack bits past the last
        real page are what the ``stripe-orphan`` fsck check polices)."""
        return (max(1, self.device_size // PAGE_SIZE) + 7) // 8

    def inode_off(self, ino: int) -> int:
        if not 0 <= ino < self.inode_count:
            raise ValueError(f"inode {ino} out of range")
        return self.itable_off + ino * INODE_SIZE

    def page_off(self, page_no: int) -> int:
        if not 1 <= page_no <= self.page_count:
            raise ValueError(f"page {page_no} out of range")
        # Page numbers are 1-based so that 0 can mean "no page".
        if self.devices <= 1:
            return self.data_off + (page_no - 1) * PAGE_SIZE
        unit, in_unit = divmod(page_no - 1, self.stripe_pages)
        device = unit % self.devices
        local = (unit // self.devices) * self.stripe_pages + in_unit
        return device * self.dev_size + self.data_off + local * PAGE_SIZE

    def page_device(self, page_no: int) -> "Tuple[int, int]":
        """The (member index, member-local byte offset) a page maps to."""
        off = self.page_off(page_no)
        if self.devices <= 1:
            return 0, off
        return off // self.dev_size, off % self.dev_size

    def extent_runs(self, start_page: int, npages: int):
        """Split ``npages`` consecutive page numbers into physically
        contiguous ``(first_page, count)`` runs.

        On a flat device consecutive page numbers are always contiguous
        (one run); on a striped array contiguity breaks at every stripe-
        unit boundary, where the next page lands on the next member.  The
        extent-batched data path and the allocator's batched zeroing both
        stream one store per run.
        """
        if npages <= 0:
            return
        if self.devices <= 1:
            yield start_page, npages
            return
        page = start_page
        remaining = npages
        while remaining > 0:
            in_unit = (page - 1) % self.stripe_pages
            take = min(remaining, self.stripe_pages - in_unit)
            yield page, take
            page += take
            remaining -= take
