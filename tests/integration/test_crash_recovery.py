"""Crash-consistency: every reachable crash state recovers to a consistent
file system, and committed operations are never lost.

Uses the failpoint-crash + crash-state-enumeration machinery: a CrashPoint
is raised at an interesting instant, every reachable persisted image is
rebooted, and invariants are checked on each.
"""

import pytest

from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.core.config import ARCKFS_PLUS
from repro.errors import CrashPoint
from repro.fsck.findings import (
    F_CHAIN_CORRUPT,
    F_DUPLICATE_DENTRY,
    F_ORPHAN_INODE,
    F_PAGE_LEAK,
    TORN_CLASSES,
)
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.crash import explore
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE
from tests.conftest import build_fs, lost


def remount(device):
    kernel = KernelController.mount(device)
    fs = LibFS(kernel, "recovered", uid=1000)
    return kernel, fs


def all_recoveries(device, check):
    """``check(kernel, fs)`` on a mount of every crash image reachable
    now; returns what it returned that was not None."""
    [point] = explore(device, None, lambda rebooted, _p: check(*remount(rebooted)),
                      budget=8192)
    return point.verdicts


class TestDurabilityOfCompletedOps:
    """Synchronous persistence: once an op returns, it survives any crash."""

    def test_create_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.close(fs.creat("/f"))

        # No drain: the operation itself must have persisted everything.
        def check(kernel, rfs):
            assert rfs.exists("/f")
            assert not lost(kernel.last_recovery)
        all_recoveries(device, check)

    def test_write_durable_after_return(self):
        device, _kc, fs = build_fs()
        fd = fs.creat("/f")
        fs.pwrite(fd, b"committed-data", 0)

        def check(_kernel, rfs):
            rfd = rfs.open("/f")
            assert rfs.pread(rfd, 100, 0) == b"committed-data"
        all_recoveries(device, check)

    def test_unlink_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.close(fs.creat("/f"))
        fs.unlink("/f")

        def check(_kernel, rfs):
            assert not rfs.exists("/f")
        all_recoveries(device, check)

    def test_mkdir_chain_durable(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.close(fs.creat("/a/b/f"))

        def check(_kernel, rfs):
            assert rfs.readdir("/a/b") == ["f"]
        all_recoveries(device, check)

    def test_rename_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.close(fs.creat("/old"))
        fs.rename("/old", "/d/new")

        def check(_kernel, rfs):
            assert rfs.exists("/d/new")
            assert not rfs.exists("/old")
        all_recoveries(device, check)

    # An unlink or rmdir leaves its inode-record free, and a rename its old
    # name's tombstone, to the next fence.  Every image reachable at return
    # (no drain) must still mount to the post-op namespace, fsck-clean.

    @staticmethod
    def assert_every_image(device, probe, want):
        """Every crash image reachable now mounts fsck-clean and shows
        ``probe(session) == want``."""
        def judge(rebooted, _point):
            vol = Volume.mount(rebooted)
            assert vol.fsck().clean
            assert probe(vol.session("r", uid=0)) == want
        explore(device, None, judge, budget=8192)

    def test_unlink_leaves_only_leaks_to_the_next_fence(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.close(fs.creat("/d/g"))
        fs.unlink("/d/f")
        assert len(device.dirty_lines()) > 0
        self.assert_every_image(device, lambda s: s.readdir("/d"), ["g"])

    def test_rmdir_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.mkdir("/d/sub")
        fs.rmdir("/d/sub")
        assert len(device.dirty_lines()) > 0
        self.assert_every_image(device, lambda s: s.readdir("/d"), [])

    def test_same_directory_rename_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.close(fs.creat("/d/a"))
        fs.rename("/d/a", "/d/b")
        assert len(device.dirty_lines()) > 0
        self.assert_every_image(device, lambda s: s.readdir("/d"), ["b"])

    def test_cross_directory_rename_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.mkdir("/e")
        fs.close(fs.creat("/d/f"))
        fs.rename("/d/f", "/e/f")
        assert len(device.dirty_lines()) > 0
        self.assert_every_image(
            device, lambda s: (s.readdir("/d"), s.readdir("/e")), ([], ["f"]))

    def test_directory_rename_durable_after_return(self):
        device, _kc, fs = build_fs()
        fs.makedirs("/d/sub")
        fs.mkdir("/e")
        fs.close(fs.creat("/d/sub/f"))
        fs.rename("/d/sub", "/e/sub")
        assert len(device.dirty_lines()) > 0
        self.assert_every_image(
            device, lambda s: (s.readdir("/d"), s.readdir("/e"), s.readdir("/e/sub")),
            ([], ["sub"], ["f"]))

    def test_creat_reusing_an_unlinked_slot_before_any_fence(self):
        """The unlink's record free is still unfenced when the creat takes
        the same slot and writes the new record over it."""
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.close(fs.creat("/d/old"))
        ino = fs.stat("/d/old").ino
        fs.unlink("/d/old")
        fs.close(fs.creat("/d/new"))
        assert fs.stat("/d/new").ino == ino
        self.assert_every_image(
            device, lambda s: (s.readdir("/d"), s.stat("/d/new").ino), (["new"], ino))


class TestCrashMidOperation:
    def _crash_at(self, point, op, config=ARCKFS_PLUS, setup=None):
        device, _kc, fs = build_fs(config)
        if setup:
            setup(fs)

        def crash(_ctx):
            raise CrashPoint(point)

        failpoints.install(point, crash)
        try:
            with pytest.raises(CrashPoint):
                op(fs)
        finally:
            failpoints.remove(point)
        return device

    def test_crash_mid_create_atomic(self):
        """Crash before the final fence: the file either exists completely
        or not at all — never a torn dentry (ArckFS+ fence)."""
        device = self._crash_at(
            "create.post_marker", lambda fs: fs.creat("/the-new-file-with-long-name")
        )

        def check(kernel, rfs):
            assert not (TORN_CLASSES | {F_CHAIN_CORRUPT}) & set(kernel.last_recovery.classes())
            names = rfs.readdir("/")
            assert names in ([], ["the-new-file-with-long-name"])
            return tuple(names)
        outcomes = set(all_recoveries(device, check))
        assert len(outcomes) == 2  # both outcomes genuinely reachable

    def test_crash_mid_rename_old_or_new(self):
        """Crash between the new-dentry append and the old tombstone: the
        file is visible under exactly one of the two names."""
        def op(fs):
            fs.rename("/old", "/d/new")

        def setup(fs):
            fs.mkdir("/d")
            fd = fs.creat("/old")
            fs.pwrite(fd, b"X", 0)
            fs.close(fd)

        device = self._crash_at("dir.write_mid", op, setup=setup)
        # dir.write_mid fires inside the new-parent append (first dentry
        # write of the rename), i.e. before the new entry is committed.
        def check(_kernel, rfs):
            old_there = rfs.exists("/old")
            new_there = rfs.exists("/d/new")
            assert old_there or new_there  # never lost
            # (both-visible is impossible this early; tolerate it anyway)
        all_recoveries(device, check)

    def test_crash_mid_unlink(self):
        def setup(fs):
            fs.close(fs.creat("/f"))

        device = self._crash_at("dir.write_mid", lambda fs: fs.unlink("/f"),
                                setup=setup)

        def check(kernel, rfs):
            # Crash before the tombstone: the file must still exist.
            assert rfs.exists("/f")
            assert not lost(kernel.last_recovery)
        all_recoveries(device, check)


class TestRecoveryHousekeeping:
    def test_leaked_pages_reclaimed(self):
        """Pages allocated but never linked (crash mid-write) are reclaimed."""
        device, kernel, fs = build_fs()
        fd = fs.creat("/f")
        fs.pwrite(fd, b"x" * 4096, 0)
        device.drain()
        # Simulate a crash that persisted an allocation but no link: set a
        # bitmap bit directly.
        leaked = kernel.alloc.alloc()
        device.drain()
        kernel2, _fs2 = remount(PMDevice.from_image(device.durable_image()))
        assert kernel2.last_recovery.repairs[F_PAGE_LEAK] >= 1
        assert not kernel2.alloc.is_allocated(leaked)

    def test_orphan_inodes_reclaimed(self):
        """Inode records valid but unreachable from the root are wiped."""
        device, kernel, fs = build_fs()
        # Write a valid-looking inode record into a free slot, bypassing
        # the FS (as a crashed half-creation would leave).
        from repro.core.corestate import CoreState
        from repro.pm.layout import INODE_MAGIC, ITYPE_FILE, InodeRecord, NTAILS

        cs = CoreState(device, kernel.geom)
        rec = InodeRecord(INODE_MAGIC, ITYPE_FILE, 0o644, 0, 7, 0, 1, 0, 0, [0] * NTAILS)
        cs.write_inode(42, rec)
        device.drain()
        kernel2, _fs2 = remount(PMDevice.from_image(device.durable_image()))
        assert 42 in {f.ino for f in kernel2.last_recovery.by_class(F_ORPHAN_INODE)}
        assert not kernel2.core.read_inode(42).valid

    def test_duplicate_dentries_resolved_by_seq(self):
        """A crashed rename can leave the child under both parents; the
        higher-seq dentry wins deterministically."""
        device, _kc, fs = build_fs()
        fs.mkdir("/d")
        fs.close(fs.creat("/old"))

        def crash(_ctx):
            # Crash inside the rename's new-dentry append (the marker is
            # flushed, the old dentry not yet tombstoned).
            raise CrashPoint("post-append, pre-tombstone")

        failpoints.install("create.post_marker", crash)
        try:
            with pytest.raises(CrashPoint):
                fs.rename("/old", "/d/new")
        finally:
            failpoints.remove("create.post_marker")
        # The marker of the new dentry was flushed; there exists a crash
        # image where both dentries are live.  Mount keeps the higher seq
        # and tombstones the other on media: exactly one name, fsck clean.
        def check(kernel, rfs):
            assert rfs.exists("/old") != rfs.exists("/d/new")
            assert kernel.audit_tree() == []
        all_recoveries(device, check)
        vol = Volume.mount(device.volatile_image())
        s = vol.session("r", uid=0)
        assert (s.exists("/old"), s.exists("/d/new")) == (False, True)
        assert vol.kernel.last_recovery.repairs[F_DUPLICATE_DENTRY] == 1
        assert vol.fsck().clean

    @staticmethod
    def newest_image_of_crashed_rename(setup, old, new):
        """The image of a rename crashed after its new dentry's marker,
        every dirty line at its newest version: both dentries live."""
        device, _kc, fs = build_fs()
        setup(fs)

        def crash(_ctx):
            raise CrashPoint("post-marker")

        failpoints.install("create.post_marker", crash)
        try:
            with pytest.raises(CrashPoint):
                fs.rename(old, new)
        finally:
            failpoints.remove("create.post_marker")
        newest = {line: n - 1 for line, n in device.line_choices().items()}
        return device.crash_image(newest)

    def test_mount_tombstones_cross_directory_duplicate(self):
        """Both names live under two parents: mount used to pick a winner
        in its shadow table only, so LibFS listed both, fsck reported
        ``duplicate-dentry``, and unlinking the old name freed the inode
        the new one still named (``dangling-dentry``)."""
        def setup(fs):
            fs.mkdir("/d")
            fs.close(fs.creat("/old"))

        vol = Volume.mount(self.newest_image_of_crashed_rename(setup, "/old", "/d/new"))
        s = vol.session("r", uid=0)
        assert (s.readdir("/"), s.readdir("/d")) == (["d"], ["new"])
        assert vol.fsck().clean
        s.unlink("/d/new")
        s.release_all()
        assert vol.fsck().clean

    def test_mount_tombstones_same_directory_duplicate(self):
        """Both names live in one directory: LibFS already hid the loser,
        but it stayed live on media and fsck reported it."""
        def setup(fs):
            fs.mkdir("/d")
            fs.close(fs.creat("/d/a"))

        image = self.newest_image_of_crashed_rename(setup, "/d/a", "/d/b")
        vol = Volume.mount(image)
        assert vol.session("r", uid=0).readdir("/d") == ["b"]
        assert vol.kernel.last_recovery.repairs[F_DUPLICATE_DENTRY] == 1
        assert vol.fsck().clean

    def test_remount_idempotent(self):
        device, _kc, fs = build_fs()
        fs.mkdir("/a")
        for i in range(10):
            fs.close(fs.creat(f"/a/f{i}"))
        device.drain()
        img = device.durable_image()
        k1, fs1 = remount(PMDevice.from_image(img))
        k2, fs2 = remount(PMDevice.from_image(img))
        assert sorted(k1.shadow) == sorted(k2.shadow)
        assert fs1.readdir("/a") == fs2.readdir("/a")


class TestBatchedFreeCrash:
    """A truncate or unlink frees its pages in one batch whose bit clears
    ride the next fence, so they are judged at the op's return.  A crash
    at any fence of either op or at its return — slots unmapped or not,
    the bitmap batch torn across lines or not — mounts fsck-clean and
    shows the old or the new file, never a third state."""

    BIG = bytes(range(256)) * (2 * 1024 * 1024 // 256)   # 2 MiB: 512 pages
    MULTI = b"m" * (5 * PAGE_SIZE + 7)

    def base_image(self):
        vol = Volume.create(4 << 20, VolumeConfig(crash_tracking=True,
                                                  inode_count=32))
        with vol.session("setup", uid=0) as s:
            s.write_file("/big", self.BIG)
            s.write_file("/multi", self.MULTI)
        vol.close()
        return vol.device.durable_image()

    def explore(self, op, judge, fences):
        """Run ``op`` once on a tracked mount of the base image and judge
        the images of a crash at each of its ``fences`` fences and at its
        return: the durable floor, every dirty line at its newest version,
        and a few random mixes of the two."""
        vol = Volume.mount(self.base_image(), VolumeConfig(crash_tracking=True))
        session = vol.session("op", uid=0)
        points = explore(vol.device, lambda: op(session), judge, budget=5)
        assert [p.fence for p in points] == [*range(1, fences + 1), None]
        assert points[-1].states > 1, "no bit clear left to judge at return"
        return {v for p in points for v in p.verdicts}

    def test_shrink_2mib_to_4kib(self):
        def judge(dev, point):
            vol = Volume.mount(dev)
            assert vol.fsck().clean, point.fence
            data = vol.session("r", uid=0).read_file("/big")
            assert data in (self.BIG, self.BIG[:PAGE_SIZE]), (point.fence, len(data))
            return len(data)
        seen = self.explore(lambda s: s.truncate("/big", PAGE_SIZE), judge, 2)
        assert seen == {len(self.BIG), PAGE_SIZE}

    def test_unlink_multi_page_file(self):
        def judge(dev, point):
            vol = Volume.mount(dev)
            assert vol.fsck().clean, point.fence
            s = vol.session("r", uid=0)
            there = s.exists("/multi")
            if there:
                assert s.read_file("/multi") == self.MULTI, point.fence
            return there
        seen = self.explore(lambda s: s.unlink("/multi"), judge, 1)
        assert seen == {True, False}


class TestCrashPastEOF:
    """A crash before an append's size commits can leave its bytes durable
    past the committed size: in the last page's tail, or on pages mapped
    past it; a crash inside a shrink can leave pages mapped past it too.
    Mount unmaps those pages and zeroes that tail, so a later extension
    reads zeros, never the uncommitted bytes, and maps no page twice."""

    @pytest.mark.parametrize("size,append", [(PAGE_SIZE, PAGE_SIZE), (100, 200),
                                             (100, 2 * PAGE_SIZE)])
    def test_extension_after_a_crash_mid_append_reads_zeros(self, size, append):
        vol = Volume.create(4 << 20, VolumeConfig(crash_tracking=True, inode_count=32))
        with vol.session("setup", uid=0) as s:
            s.write_file("/f", b"a" * size)
        vol.close()
        vol = Volume.mount(vol.device.durable_image(), VolumeConfig(crash_tracking=True))
        session = vol.session("op", uid=0)
        grown = 4 * PAGE_SIZE
        old = b"a" * size + bytes(grown - size)
        new = b"a" * size + b"b" * append + bytes(grown - size - append)

        def append_then_judge(dev, point):
            mounted = Volume.mount(dev)
            assert mounted.fsck().clean, point.fence
            s = mounted.session("r", uid=0)
            want = new if len(s.read_file("/f")) == size + append else old
            s.truncate("/f", grown)
            data = s.read_file("/f")
            return None if data == want else (point.fence, data.count(b"b"))

        def op():
            fd = session.open("/f")
            session.pwrite(fd, b"b" * append, size)
            session.close(fd)

        points = explore(vol.device, op, append_then_judge, budget=16)
        assert len(points) > 1
        assert [v for p in points for v in p.verdicts] == []

    def test_a_torn_unmap_never_maps_a_page_twice(self):
        """A shrink's slot clears span cache lines that persist in any
        order: a crash can leave a cleared slot ahead of stale mapped ones.
        A later append that fills up to them must not find them mapped."""
        vol = Volume.create(4 << 20, VolumeConfig(crash_tracking=True, inode_count=32))
        with vol.session("setup", uid=0) as s:
            s.write_file("/f", b"x" * 20 * PAGE_SIZE)
        vol.close()
        vol = Volume.mount(vol.device.durable_image(), VolumeConfig(crash_tracking=True))
        session = vol.session("op", uid=0)

        def regrow_then_judge(dev, point):
            mounted = Volume.mount(dev)
            s = mounted.session("r", uid=0)
            size = len(s.read_file("/f"))
            fd = s.open("/f")
            s.pwrite(fd, b"y" * 13 * PAGE_SIZE, size)
            s.close(fd)
            s.write_file("/g", b"g" * 8 * PAGE_SIZE)
            report = mounted.fsck()
            data = s.read_file("/f")
            if report.clean and data == b"x" * size + b"y" * 13 * PAGE_SIZE:
                return None
            return (point.fence, size, sorted({f.cls for f in report.findings}))

        points = explore(vol.device, lambda: session.truncate("/f", PAGE_SIZE),
                         regrow_then_judge, budget=64)
        assert [v for p in points for v in p.verdicts] == []
