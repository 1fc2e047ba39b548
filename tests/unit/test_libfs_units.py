"""Unit tests for LibFS internals: fd table, freelist, attach machinery,
cached-state reads, and the release semantics details of §4.3."""

import pytest

from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.errors import BadFileDescriptor, SimulatedSegfault
from repro.libfs.fdtable import FDTable
from repro.libfs.hashtable import NodeFreelist
from repro.libfs.inode import MemInode
from tests.conftest import build_fs


class TestFDTable:
    def make_mi(self):
        from repro.concurrency.rcu import RCU
        from repro.pm.layout import INODE_MAGIC, ITYPE_FILE, InodeRecord

        rec = InodeRecord(INODE_MAGIC, ITYPE_FILE, 0o644, 0, 1, 0, 1, 0, 0,
                          [0, 0, 0, 0])
        return MemInode(5, rec, ARCKFS_PLUS, RCU(), NodeFreelist())

    def test_install_get_close(self):
        table = FDTable()
        mi = self.make_mi()
        entry = table.install(mi)
        assert table.get(entry.fd) is entry
        table.close(entry.fd)
        with pytest.raises(BadFileDescriptor):
            table.get(entry.fd)

    def test_fds_are_distinct_and_start_at_3(self):
        table = FDTable()
        mi = self.make_mi()
        fds = [table.install(mi).fd for _ in range(5)]
        assert fds == [3, 4, 5, 6, 7]

    def test_offset_advance_is_atomic_fetch_add(self):
        table = FDTable()
        entry = table.install(self.make_mi())
        assert entry.advance(10) == 0
        assert entry.advance(5) == 10
        assert entry.offset == 15

    def test_open_count(self):
        table = FDTable()
        mi = self.make_mi()
        table.install(mi)
        table.install(mi)
        assert table.open_count() == 2
        assert table.open_count(mi.ino) == 2
        assert table.open_count(999) == 0

    def test_close_all(self):
        table = FDTable()
        fd = table.install(self.make_mi()).fd
        table.close_all()
        with pytest.raises(BadFileDescriptor):
            table.get(fd)


class TestFreelist:
    def test_free_poisons(self):
        fl = NodeFreelist()
        node = fl.alloc(b"n", 1, 1, 1, 1, None)
        fl.free(node)
        assert node.poisoned
        with pytest.raises(SimulatedSegfault):
            node.check()

    def test_alloc_reuses_and_unpoisons(self):
        fl = NodeFreelist()
        node = fl.alloc(b"old", 1, 1, 1, 1, None)
        fl.free(node)
        node2 = fl.alloc(b"new", 2, 1, 1, 1, None)
        assert node2 is node  # reuse — the §4.5 hazard
        assert not node2.poisoned
        assert node2.name == b"new" and node2.ino == 2
        assert fl.reuses == 1

    def test_unlinked_nodes_are_freed_while_the_session_runs(self, fsx):
        """With no lookup inside a read section, an unlinked node is freed
        at once and reused by the next create; it used to wait for a grace
        period that only ``quiesce``/``shutdown`` ran, so every unlink
        grew the session's memory."""
        _device, _kernel, fs = fsx
        for i in range(200):
            fs.close(fs.creat(f"/f{i}"))
            fs.unlink(f"/f{i}")
        assert fs.rcu.pending_callbacks() == 0
        assert fs.freelist.reuses > 0

    def test_an_entry_outlives_the_reuse_of_its_node(self):
        """A node freed with no reader inside is reused by the next create,
        so a lookup copies ``(ino, itype)`` out inside its read section."""
        from repro.concurrency.rcu import RCU
        from repro.libfs.hashtable import DirHashTable

        table = DirHashTable(ARCKFS_PLUS, RCU(), NodeFreelist(), tag="t")
        bucket = table.bucket_of(b"a")
        with bucket.lock:
            table.insert_locked(bucket, table.freelist.alloc(b"a", 5, 1, 1, 1, None))
        node, entry = table.lookup(b"a"), table.entry(b"a")
        with bucket.lock:
            table.remove_locked(bucket, b"a")
        assert table.freelist.alloc(b"b", 9, 1, 2, 1, None) is node
        assert node.ino == 9  # what a reader holding the node would see
        assert entry == (5, 1)


class TestAttachMachinery:
    def test_reattach_after_own_release_reuses_aux(self):
        """Non-stale re-acquire (same app) keeps the retained aux state."""
        _dev, kernel, fs = build_fs(ARCKFS_PLUS)
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.commit_path("/")
        mi = fs._resolve(("d",), need_dir=True)
        table_before = mi.dir
        fs.release_path("/d")
        assert not mi.attached
        fs.close(fs.creat("/d/g"))  # transparent re-attach
        assert fs._resolve(("d",), need_dir=True).dir is table_before

    def test_arckfs_release_drops_aux(self):
        _dev, _kernel, fs = build_fs(ARCKFS)
        fs.mkdir("/d")
        fs.commit_path("/")
        ino = fs.stat("/d").ino
        assert ino in fs._inodes
        fs.release_path("/d")
        assert ino not in fs._inodes  # §4.3 bug: aux freed on release

    def test_arckfs_plus_release_keeps_aux(self):
        _dev, _kernel, fs = build_fs(ARCKFS_PLUS)
        fs.mkdir("/d")
        fs.commit_path("/")
        ino = fs.stat("/d").ino
        fs.release_path("/d")
        assert ino in fs._inodes
        assert not fs._inodes[ino].attached

    def test_release_idempotent(self, fs):
        fs.mkdir("/d")
        fs.commit_path("/")
        fs.release_path("/d")
        fs.release_ino(fs.stat("/d").ino)  # second release is a no-op

    def test_depth_ordering_for_release_all(self, fsx):
        _dev, kernel, fs = fsx
        fs.makedirs("/a/b/c")
        fs.close(fs.creat("/a/b/c/f"))
        # release_all must go top-down (Rule 1) — if it released /a/b/c
        # first, verification would fail with CorruptionDetected.
        fs.release_all()
        assert not kernel.acquisitions
        assert kernel.audit_tree() == []

    def test_pick_tail_in_range(self):
        """The tails are the record's: a directory has exactly ``NTAILS``
        locks and cursors and a thread is never sent past them."""
        from repro.concurrency.rcu import RCU
        from repro.pm.layout import INODE_MAGIC, ITYPE_DIR, NTAILS, InodeRecord

        rec = InodeRecord(INODE_MAGIC, ITYPE_DIR, 0o777, 0, 1, 0, 2, 0, 0,
                          [0] * NTAILS)
        mi = MemInode(3, rec, ARCKFS_PLUS, RCU(), NodeFreelist())
        assert len(mi.tail_locks) == len(mi.cursors) == NTAILS
        assert 0 <= mi.pick_tail() < NTAILS


class TestCachedReads:
    def test_stat_tracks_writes_without_reattach(self, fsx):
        _dev, kernel, fs = fsx
        fd = fs.creat("/f")
        fs.pwrite(fd, b"x" * 1234, 0)
        assert fs.stat("/f").size == 1234
        fs.pwrite(fd, b"y", 5000)
        assert fs.stat("/f").size == 5001

    def test_readdir_of_released_dir_serves_cached(self, fsx):
        _dev, kernel, fs = fsx
        fs.mkdir("/d")
        for i in range(3):
            fs.close(fs.creat(f"/d/f{i}"))
        fs.commit_path("/")
        fs.release_path("/d")
        acq0 = kernel.stats.acquires
        assert fs.readdir("/d") == ["f0", "f1", "f2"]
        assert kernel.stats.acquires == acq0  # no kernel round-trip

    def test_stale_aux_rebuilt_from_core(self):
        """When another app modified the dir, staleness forces a rebuild."""
        from repro.kernel.controller import KernelController
        from repro.libfs.libfs import LibFS
        from repro.pm.device import PMDevice

        device = PMDevice(32 * 1024 * 1024)
        kernel = KernelController.fresh(device, inode_count=256)
        app1 = LibFS(kernel, "a1", uid=0)
        app2 = LibFS(kernel, "a2", uid=0)
        app1.mkdir("/d", mode=0o777)
        app1.close(app1.creat("/d/one"))
        app1.release_all()
        app2.close(app2.creat("/d/two"))
        app2.release_all()
        # app1 must now *see* two (attach detects staleness and rebuilds).
        app1.close(app1.creat("/d/three"))
        assert app1.readdir("/d") == ["one", "three", "two"]


class TestUnlinkAcrossParentRelease:
    def test_the_file_is_forgotten_and_its_slot_freed(self, monkeypatch):
        """The parent's release lands between unlink's tombstone and the
        freeing of the file's record (``test_stress.py``'s releaser thread
        hits this window): the verifier detaches the still-valid file, and
        the file's own release then finds its record freed.  No parent is
        left to confirm that deletion, so the release must: the shadow
        table kept the file as an orphan, its slot leaked."""
        _dev, kernel, fs = build_fs(ARCKFS_PLUS)
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.release_all()
        ino = fs.stat("/d/f").ino
        free_file_inode = fs._free_file_inode

        def parent_released_first(victim):
            fs.release_path("/d")
            free_file_inode(victim)

        monkeypatch.setattr(fs, "_free_file_inode", parent_released_first)
        fs.unlink("/d/f")
        fs.release_all()
        assert kernel.audit_tree() == []
        assert ino not in kernel.shadow and ino in kernel.free_inodes


class TestSlotReuse:
    """One LibFS, two threads: A deletes a never-verified inode, whose slot
    goes back to the kernel's free pool at A's release, and B creates into
    that slot before A drops what it kept for the old inode.  A is parked
    right there — after ``kernel.release``, before the drop — by wrapping
    the kernel's ``release``."""

    @pytest.mark.parametrize("kind", ["file", "dir"])
    def test_a_reused_slot_keeps_the_new_inode(self, monkeypatch, kind):
        import threading

        _dev, kernel, fs = build_fs(ARCKFS_PLUS)
        if kind == "file":
            fs.close(fs.creat("/old"))
            delete = fs.unlink
        else:
            fs.mkdir("/old")
            delete = fs.rmdir
        slot = fs.stat("/old").ino
        released, resume = threading.Event(), threading.Event()
        real_release = kernel.release

        def parked_release(app_id, ino):
            version = real_release(app_id, ino)
            if threading.current_thread() is deleter:
                released.set()
                resume.wait(10)
            return version

        monkeypatch.setattr(kernel, "release", parked_release)
        deleter = threading.Thread(target=delete, args=("/old",))
        deleter.start()
        assert released.wait(10)
        fd = fs.creat("/new")                  # B, while A is parked
        assert fs.stat("/new").ino == slot     # the lowest free slot again
        resume.set()
        deleter.join(10)
        fs.pwrite(fd, b"still the file it opened", 0)  # was BadFileDescriptor
        fs.close(fd)
        assert fs.read_file("/new") == b"still the file it opened"
        fs.release_all()
        assert kernel.audit_tree() == []
