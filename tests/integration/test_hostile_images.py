"""Hostile images end in a typed error, a finding or a working volume.

ROADMAP aim 3: a torn or forged image may end in a typed
:class:`~repro.errors.ReproError` (or a :class:`SimulatedFault`), an fsck /
mount finding, or success — never a bare Python exception or a hang.  The
seeded sweep flips one byte of the metadata region (superblock included)
per image and drives mount → walk + read every file → create + rename →
fsck with a deadline on each stage; the three one-store reproducers below
are what a 1 500-image sweep found before the fixes.
"""

import random
import signal
import struct
from contextlib import contextmanager

import pytest

from repro.api import Volume, VolumeConfig
from repro.core.mkfs import ROOT_INO
from repro.errors import CorruptionDetected, DoubleFree, ReproError, SimulatedFault
from repro.fsck.findings import (F_DANGLING_DENTRY, F_PAGE_UNALLOCATED, F_SIZE_MISMATCH,
                                 F_TORN_DENTRY, TORN_CLASSES)
from repro.pm.layout import DENTRY_HEADER, INODE_SIZE, PAGE_SIZE, Superblock
from tests.conftest import dir_entries, lost

pytestmark = pytest.mark.timeout(120)

TYPED = (ReproError, SimulatedFault)
STAGE_SECONDS = 5.0


class StageTimeout(BaseException):
    """A stage overran its deadline (BaseException: nothing may swallow it)."""


@contextmanager
def deadline(stage: str, seconds: float = STAGE_SECONDS):
    """Interrupt the (main-thread, pure-Python) stage after ``seconds``."""
    def on_alarm(_signum, _frame):
        raise StageTimeout(f"{stage} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    outer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *outer)  # e.g. pytest-timeout's
        signal.signal(signal.SIGALRM, previous)


def build_volume() -> Volume:
    vol = Volume.create(2 << 20, VolumeConfig(inode_count=32))
    with vol.session("builder", uid=0) as s:
        s.mkdir("/a")
        s.mkdir("/a/b")
        s.mkdir("/empty")
        s.write_file("/small", b"s" * 100)
        s.write_file("/a/page", b"p" * PAGE_SIZE)
        s.write_file("/a/b/big", b"B" * (3 * PAGE_SIZE + 17))
        s.close(s.creat("/a/zero"))
        for i in range(6):
            s.write_file(f"/a/b/f{i}", bytes([65 + i]) * (50 * i))
    vol.close()
    return vol


def metadata_offsets(vol: Volume):
    """Every byte the sweep may flip: the superblock, the used inode
    records, the bitmap bytes covering allocated pages, and the used part of
    every directory log and file index page."""
    geom, core = vol.kernel.geom, vol.kernel.core
    offsets = list(range(Superblock.SIZE))
    for ino in sorted(vol.kernel.shadow):
        offsets.extend(range(geom.inode_off(ino), geom.inode_off(ino) + INODE_SIZE))
        rec = core.read_inode(ino)
        if rec.is_dir:
            for page_no in core.dir_pages(rec):
                used = core.page_dentries(page_no)[1]
                base = geom.page_off(page_no)
                offsets.extend(range(base, base + 16 + used + 8))
        else:
            index = core.index_pages(rec)
            slots = len(list(core.data_pages(index)))
            for page_no in index:
                base = geom.page_off(page_no)
                offsets.extend(range(base, base + 16 + 8 * (slots + 1)))
    allocated = max(vol.kernel.page_owner)
    offsets.extend(range(geom.bitmap_off, geom.bitmap_off + allocated // 8 + 2))
    return offsets


def walk(session, path="/", seen=None):
    """readdir + stat everything, read every file (a forged image may link
    a directory under itself: visit each directory inode once)."""
    seen = set() if seen is None else seen
    for name in session.readdir(path):
        child = path.rstrip("/") + "/" + name
        st = session.stat(child)
        if not st.is_dir:
            session.read_file(child)
        elif st.ino not in seen:
            seen.add(st.ino)
            walk(session, child, seen)


def drive(image: bytes) -> str:
    """Run every stage on ``image``; returns how it ended.  Anything that
    is not a typed error, a finding or success propagates."""
    with deadline("mount"):
        try:
            vol = Volume.mount(image)
        except TYPED as exc:
            return f"mount: {type(exc).__name__}"
    ending = "mount finding" if lost(vol.recovery) else "ok"
    with deadline("walk"):
        try:
            with vol.session("walker", uid=0) as s:
                walk(s)
        except TYPED as exc:
            ending = f"walk: {type(exc).__name__}"
    with deadline("mutate"):
        try:
            with vol.session("mutator", uid=0) as s:
                s.write_file("/a/new", b"n" * 5000)
                s.rename("/a/new", "/moved")
        except TYPED as exc:
            ending = f"mutate: {type(exc).__name__}"
    with deadline("fsck"):
        try:
            if not vol.fsck().clean and ending == "ok":
                ending = "fsck finding"
        except TYPED as exc:
            ending = f"fsck: {type(exc).__name__}"
    return ending


def sweep(image: bytes, flips) -> dict:
    """Drive one forged image per ``(offset, value)``; returns how many
    ended each way and fails on any that ended some other way."""
    endings, bad = {}, []
    for off, value in flips:
        forged = bytearray(image)
        forged[off] = value
        try:
            ending = drive(bytes(forged))
        except (Exception, StageTimeout) as exc:
            bad.append(f"byte {off} <- {value:#04x}: "
                       f"{type(exc).__name__}: {exc}")
            continue
        endings[ending] = endings.get(ending, 0) + 1
    assert not bad, "\n".join(bad)
    return endings


def test_byte_flip_sweep_ends_typed_found_or_fine():
    vol = build_volume()
    image = vol.device.durable_image()
    offsets = metadata_offsets(vol)
    rng = random.Random(17)

    def flips():
        for _ in range(200):
            off = rng.choice(offsets)
            value = rng.choice([0x00, 0x01, 0xBE, 0xFF, rng.randrange(256),
                                image[off] ^ (1 << rng.randrange(8))])
            if value == image[off]:
                value ^= 0x80
            yield off, value

    endings = sweep(image, flips())
    # Not vacuous: the flips reach mount, the verifier and fsck.
    assert endings.get("ok", 0) < 150, endings
    assert "mount finding" in endings and "fsck finding" in endings, endings
    assert any("CorruptionDetected" in e for e in endings), endings


@pytest.mark.parametrize("devices", [1, 4], ids=["flat", "striped"])
def test_every_superblock_byte_flip_ends_typed_found_or_fine(devices):
    """The superblock decides every offset mount computes, so it gets every
    byte, not a sample: a forged ``inode_count`` or ``device_size`` used to
    end in a bare ``PersistOrderError`` past the end of the device, a forged
    magic or ``devices`` in a bare ``ValueError``."""
    vol = Volume.create(devices << 21, VolumeConfig(
        inode_count=32, devices=devices, stripe_pages=2))
    with vol.session("builder", uid=0) as s:
        s.mkdir("/a")
        s.write_file("/small", b"s" * 100)
        s.write_file("/a/big", b"B" * (3 * PAGE_SIZE + 17))
    image = vol.device.durable_image()
    endings = sweep(image, ((off, image[off] ^ mask)
                            for off in range(Superblock.SIZE)
                            for mask in (0x01, 0x80, 0xFF)))
    assert endings.get("mount: SuperblockCorrupt", 0) >= 50, endings
    assert "ok" in endings and "fsck finding" in endings, endings


# -- the three one-store reproducers ------------------------------------------ #

def dentry_addr(vol: Volume, name: bytes) -> int:
    """Device address of the root directory's dentry record for ``name``."""
    core = vol.kernel.core
    _d, loc = dir_entries(core, ROOT_INO)[name]
    return vol.kernel.geom.page_off(loc.page_no) + loc.offset


def test_dentry_ino_beyond_the_inode_table_is_torn_at_mount():
    vol = build_volume()
    vol.device.store(dentry_addr(vol, b"small"),
                     struct.pack("<Q", vol.kernel.geom.inode_count))
    mounted = Volume.mount(vol.device.durable_image())  # was a bare ValueError
    assert (ROOT_INO, "small") in {(f.ino, f.name) for f in mounted.recovery.findings
                                   if f.cls in TORN_CLASSES}
    assert mounted.fsck().by_class(F_DANGLING_DENTRY)
    s = mounted.session("reader")
    assert s.read_file("/a/page") == b"p" * PAGE_SIZE
    # The root still carries the dentry: it cannot verify until repaired.
    with pytest.raises(CorruptionDetected, match="unknown inode"):
        s.release_all()


def test_forged_file_size_reads_what_is_mapped():
    vol = build_volume()
    ino = vol.kernel.shadow[ROOT_INO].children[b"small"]
    vol.kernel.core.set_file_size(ino, 1 << 60)
    mounted = Volume.mount(vol.device.durable_image())
    s = mounted.session("reader")
    fd = s.open("/small")
    with deadline("pread"):  # used to plan one hole chunk per 4 KiB of 2**60 bytes
        data = s.pread(fd, 1 << 60, 0)
    assert data == b"s" * 100 + bytes(PAGE_SIZE - 100)
    with pytest.raises(CorruptionDetected, match="exceeds mapped capacity"):
        s.release_all()
    assert mounted.fsck().by_class(F_SIZE_MISMATCH)


def test_undecodable_dentry_name_is_torn_at_mount_and_hidden():
    for byte in (b"\xbe", b"\0"):  # not UTF-8; what fsck reads as torn
        vol = build_volume()
        vol.device.store(dentry_addr(vol, b"small") + DENTRY_HEADER, byte)
        mounted = Volume.mount(vol.device.durable_image())
        name = (byte + b"mall").decode("utf-8", "backslashreplace")
        assert (ROOT_INO, name) in {(f.ino, f.name) for f in mounted.recovery.findings
                                    if f.cls in TORN_CLASSES}
        assert mounted.fsck().by_class(F_TORN_DENTRY)
        s = mounted.session("reader")
        assert s.readdir("/") == ["a", "empty"]  # was a bare UnicodeDecodeError
        with pytest.raises(CorruptionDetected, match="illegal dentry name"):
            s.release_all()


def test_verifier_refuses_an_undecodable_name():
    """A LibFS must not be able to plant such a name in a shared directory:
    every other tenant's ``readdir`` would choke on it."""
    for byte in (b"\xbe", b"\0"):  # the kernel used to verify the NUL
        vol = build_volume()
        with vol.session("victim") as victim:
            attacker = vol.session("attacker", uid=0)
            attacker.close(attacker.creat("/evil"))  # holds the root, unreleased
            vol.device.store(dentry_addr(vol, b"evil") + DENTRY_HEADER, byte)
            with pytest.raises(CorruptionDetected, match="illegal dentry name"):
                attacker.release_all()
            assert victim.readdir("/") == ["a", "empty", "small"]


def test_forged_double_mapping_cannot_make_unlink_free_a_mapped_page():
    """Index slot 1 re-pointed at slot 0's page: ``unlink`` used to free
    that page, then die on the second free with a bare ``ValueError`` —
    leaving the file's pages free in the bitmap while its inode still mapped
    them (two ``page-unallocated`` findings).  The batch is refused first.
    Mount cuts such a mapping (``page-double-use``), so the forgery lands
    on the mounted volume, before a session attaches ``/f``."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
    with vol.session("w") as s:
        s.write_file("/f", b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
    mounted = Volume.mount(vol.device.durable_image())
    core = mounted.kernel.core
    rec = core.read_inode(mounted.kernel.shadow[ROOT_INO].children[b"f"])
    index = core.index_pages(rec)
    pages = list(core.data_pages(index))
    core.store_index_slots(index, 1, [pages[0]])
    mounted.device.sfence()
    bitmap = mounted.kernel.alloc.allocated_set()
    with pytest.raises(DoubleFree, match=f"page {pages[0]}"):
        mounted.session("u").unlink("/f")
    assert mounted.kernel.alloc.allocated_set() == bitmap
    assert not mounted.fsck().by_class(F_PAGE_UNALLOCATED)
