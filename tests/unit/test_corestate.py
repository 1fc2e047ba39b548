"""Unit tests for the shared core-state machinery (repro.core)."""

import pytest

from repro.core.corestate import CoreState, TailCursor
from repro.core.invariants import read_shape
from repro.core.mkfs import ROOT_INO, load_geometry, mkfs
from repro.errors import NameTooLong
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import (
    INODE_MAGIC,
    ITYPE_DIR,
    ITYPE_FILE,
    NTAILS,
    PAGE_SIZE,
    InodeRecord,
)
from tests.conftest import dir_entries


@pytest.fixture
def world():
    device = PMDevice(16 * 1024 * 1024)
    geom = mkfs(device, inode_count=128)
    cs = CoreState(device, geom)
    alloc = PageAllocator(device, geom)
    return device, geom, cs, alloc


def new_dir_record():
    return InodeRecord(INODE_MAGIC, ITYPE_DIR, 0o777, 0, 1, 0, 2, 0, 0, [0] * NTAILS)


def root_contents(cs):
    """The root's contents, by name."""
    return {name: d for name, (d, _loc) in dir_entries(cs, ROOT_INO).items()}


def append(cs, alloc, rec, cursor, name, ino=5, gen=1, seq=1, tail=0, fence=True):
    return cs.append_dentry(ROOT_INO, rec, tail, cursor, name, ino, gen,
                            ITYPE_FILE, seq, alloc, fence_before_marker=fence)


class TestMkfs:
    def test_superblock_valid(self, world):
        _dev, geom, cs, _alloc = world
        sb = cs.superblock()
        assert sb.valid
        assert sb.inode_count == 128

    def test_root_inode(self, world):
        _dev, _geom, cs, _alloc = world
        root = cs.read_inode(ROOT_INO)
        assert root.valid and root.is_dir and root.gen == 1

    def test_mkfs_is_durable(self, world):
        device, _geom, _cs, _alloc = world
        rebooted = PMDevice.from_image(device.durable_image())
        geom2 = load_geometry(rebooted)
        assert CoreState(rebooted, geom2).read_inode(ROOT_INO).valid

    def test_load_geometry_rejects_blank_device(self):
        with pytest.raises(ValueError):
            load_geometry(PMDevice(1024 * 1024))


class TestDentryLog:
    def test_append_and_scan(self, world):
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        loc = append(cs, alloc, rec, cursor, b"hello")
        assert loc.page_no == cursor.last_page
        live = root_contents(cs)
        assert list(live) == [b"hello"]
        assert live[b"hello"].ino == 5

    def test_tombstone_hides_entry(self, world):
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        loc = append(cs, alloc, rec, cursor, b"gone")
        cs.tombstone(loc)
        assert root_contents(cs) == {}
        # Still among the records the reader returns (the rules judge it).
        assert len(read_shape(cs, ROOT_INO, rec).records) == 1

    def test_same_identity_dedups_to_one(self, world):
        """Appending many dentries for the same (ino, gen) — as repeated
        renames do — leaves exactly one live name (highest seq)."""
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        for i in range(50):
            append(cs, alloc, rec, cursor, b"name%04d" % i, ino=5, gen=1, seq=i + 1)
        live = root_contents(cs)
        assert list(live) == [b"name0049"]

    def test_many_distinct_entries_across_pages(self, world):
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        for i in range(150):
            append(cs, alloc, rec, cursor, b"f%04d" % i, ino=5 + i, gen=1, seq=1)
        assert len(cs.dir_pages(rec)) >= 2
        assert len(root_contents(cs)) == 150
        # A fresh read reproduces the cursor position.
        rescan = read_shape(cs, ROOT_INO, rec).cursor(0)
        assert rescan.last_page == cursor.last_page
        assert rescan.used == cursor.used

    def test_multi_tail_independence(self, world):
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursors = [TailCursor() for _ in range(NTAILS)]
        for t in range(NTAILS):
            append(cs, alloc, rec, cursors[t], b"t%d" % t, ino=10 + t, tail=t)
        assert len([h for h in rec.tails if h]) == NTAILS
        assert len(root_contents(cs)) == NTAILS

    def test_seq_resolution_newest_wins(self, world):
        """A crashed rename leaves two dentries for one child; the higher
        seq must win deterministically."""
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        append(cs, alloc, rec, cursor, b"old-name", ino=7, gen=1, seq=1)
        append(cs, alloc, rec, cursor, b"new-name", ino=7, gen=1, seq=2)
        live = root_contents(cs)
        assert list(live) == [b"new-name"]

    def test_name_too_long_rejected(self, world):
        _dev, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        with pytest.raises(NameTooLong):
            append(cs, alloc, rec, TailCursor(), b"x" * 300)

    def test_fence_flag_changes_fence_count(self, world):
        device, _geom, cs, alloc = world
        rec = cs.read_inode(ROOT_INO)
        cursor = TailCursor()
        append(cs, alloc, rec, cursor, b"warm")  # head page allocation noise
        f0 = device.stats.fences
        append(cs, alloc, rec, cursor, b"one", fence=False)
        unfenced = device.stats.fences - f0
        f1 = device.stats.fences
        append(cs, alloc, rec, cursor, b"two", fence=True)
        fenced = device.stats.fences - f1
        assert fenced == unfenced + 1  # the §4.2 patch is exactly one fence


class TestFileIndex:
    def test_append_pages_and_read(self, world):
        _dev, _geom, cs, alloc = world
        ino = 3
        rec = InodeRecord(INODE_MAGIC, ITYPE_FILE, 0o644, 0, 1, 0, 1, 0, 0,
                          [0] * NTAILS)
        cs.write_inode(ino, rec)
        pages = alloc.alloc_many(3)
        for i, page in enumerate(pages):
            cs.write_page_data(page, 0, bytes([65 + i]) * 100)
        cs.append_file_pages(ino, rec, 0, pages, alloc)
        assert read_shape(cs, ino, rec).data == pages
        cs.set_file_size(ino, 2 * PAGE_SIZE + 100)
        rec2 = cs.read_inode(ino)
        assert rec2.size == 2 * PAGE_SIZE + 100
        data = cs.read_file_data(pages, rec2.size, 0, PAGE_SIZE)
        assert data[:100] == b"A" * 100

    def test_index_chains_past_one_page(self, world):
        _dev, _geom, cs, alloc = world
        from repro.pm.layout import INDEX_SLOTS

        ino = 4
        rec = InodeRecord(INODE_MAGIC, ITYPE_FILE, 0o644, 0, 1, 0, 1, 0, 0,
                          [0] * NTAILS)
        cs.write_inode(ino, rec)
        # More entries than one index page holds: exercise the chain.
        count = INDEX_SLOTS + 5
        fake_pages = list(range(100, 100 + count))
        # Mark them allocated so the verifier-side walkers accept them.
        cs.append_file_pages(ino, rec, 0, fake_pages, alloc)
        assert read_shape(cs, ino, rec).data == fake_pages
        assert len(cs.index_pages(rec)) == 2

    def test_read_bounded_by_mapped_pages(self, world):
        """A size beyond the mapped pages is a forgery (truncate backs every
        extension with pages, so no verified file has a hole): reads stop at
        the last mapped byte instead of planning zeros up to ``size``."""
        _dev, _geom, cs, alloc = world
        assert cs.read_file_data([], 100, 0, 50) == b""
        page = alloc.alloc()
        cs.write_page_data(page, 0, b"Z" * PAGE_SIZE)
        out = cs.read_file_data([page], 1 << 60, PAGE_SIZE - 10, 1 << 59)
        assert out == b"Z" * 10
        assert cs.read_file_data([page], 1 << 60, PAGE_SIZE, 50) == b""

    def test_free_inode_invalidates(self, world):
        _dev, _geom, cs, _alloc = world
        ino = 9
        rec = InodeRecord(INODE_MAGIC, ITYPE_FILE, 0o644, 0, 3, 0, 1, 0, 0,
                          [0] * NTAILS)
        cs.write_inode(ino, rec)
        cs.free_inode(ino)
        back = cs.read_inode(ino)
        assert not back.valid
        assert back.gen == 3  # generation survives for reuse detection
