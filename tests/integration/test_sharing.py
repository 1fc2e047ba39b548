"""Inode sharing across applications: ownership transfer, verification
cost, trust groups (§5.4), and involuntary release."""

import threading

import pytest

from repro import obs
from repro.core.config import ARCKFS_PLUS
from repro.core.corestate import CoreState
from repro.errors import (
    BadFileDescriptor,
    CorruptionDetected,
    NoEntry,
    SimulatedBusError,
    TryAgain,
)
from repro.fsck import run_fsck
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


def two_apps(group1=None, group2=None, config=ARCKFS_PLUS, size=64 << 20):
    device = PMDevice(size)
    kernel = KernelController.fresh(device, inode_count=256, config=config)
    app1 = LibFS(kernel, "app1", uid=1000, config=config, group=group1)
    app2 = LibFS(kernel, "app2", uid=1000, config=config, group=group2)
    return device, kernel, app1, app2


class TestOwnershipTransfer:
    def test_ping_pong_writes(self):
        _dev, kernel, app1, app2 = two_apps()
        fd = app1.creat("/shared", mode=0o666)
        app1.pwrite(fd, b"from-app1", 0)
        app1.release_all()

        fd2 = app2.open("/shared")
        assert app2.pread(fd2, 100, 0) == b"from-app1"
        app2.pwrite(fd2, b"from-app2", 0)
        app2.release_all()

        fd3 = app1.open("/shared")
        assert app1.pread(fd3, 100, 0) == b"from-app2"

    def test_second_owner_blocked_while_held(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.close(app1.creat("/shared", mode=0o666))
        ino = app1.stat("/shared").ino
        with pytest.raises(TryAgain):
            kernel.acquire("app2", ino)
        app1.release_all()
        kernel.acquire("app2", ino)  # now fine

    def test_held_elsewhere_is_not_absent(self):
        """``exists`` answers "no" for what is not there, not for what
        somebody else holds right now."""
        _dev, _kernel, app1, app2 = two_apps()
        app1.close(app1.creat("/shared", mode=0o666))
        app1.release_ino(app1.stat("/").ino)   # app2 can walk, app1 keeps the file
        with pytest.raises(TryAgain):
            app2.exists("/shared")
        assert not app2.exists("/nothing")
        app1.release_all()
        assert app2.exists("/shared")

    @pytest.mark.parametrize("create", ["creat", "mkdir"])
    def test_contended_create_strands_no_inode(self, create):
        """The slot a create takes before it reaches for the parent goes
        back when the parent turns out to be held: it used to stay pending,
        acquired by the loser, one more per retry, until the loser shut
        down (the wire re-runs exactly this op after every recall)."""
        _dev, kernel, app1, app2 = two_apps()
        app1.mkdir("/d", mode=0o777)
        app1.release_all()
        app2.readdir("/d")                      # app2 caches /d ...
        app2.release_all()
        app1.close(app1.creat("/d/x"))          # ... app1 holds it for write
        owned, pending = set(kernel.acquisitions), set(kernel.pending)
        for i in range(3):
            with pytest.raises(TryAgain):
                getattr(app2, create)(f"/d/y{i}")
            assert set(kernel.acquisitions) == owned
            assert set(kernel.pending) == pending
        app1.release_all()
        getattr(app2, create)("/d/y0")          # and nothing is in its way

    def test_unlink_of_a_file_held_elsewhere_removes_nothing(self):
        """``unlink`` takes the file before its name goes: it used to
        tombstone the dentry first, so the ``TryAgain`` came with the name
        already gone, a retry answered ``NoEntry`` and the file was left an
        orphan (fsck: ``orphan-inode``)."""
        device, kernel, app1, app2 = two_apps()
        app1.mkdir("/d", mode=0o777)
        fd = app1.creat("/d/f", mode=0o666)
        app1.pwrite(fd, b"app2 will hold this", 0)
        app1.release_all()
        fd2 = app2.open("/d/f")
        app2.release_all()
        app2.pwrite(fd2, b"held", 0)            # app2 holds the file, not /d
        ino = app2.fdtable.get(fd2).mi.ino
        assert kernel.acquisitions[ino].app_id == "app2"
        with pytest.raises(TryAgain):
            app1.unlink("/d/f")
        assert app1.readdir("/d") == ["f"]
        app2.release_all()
        app1.unlink("/d/f")                     # the retry finds the name
        assert app1.readdir("/d") == []
        app1.release_all()
        assert kernel.audit_tree() == []
        assert run_fsck(device).clean

    def test_each_transfer_verifies(self):
        _dev, kernel, app1, app2 = two_apps()
        fd = app1.creat("/shared", mode=0o666)
        app1.pwrite(fd, b"x" * (256 * 1024), 0)
        app1.release_all()
        v0 = kernel.stats.bytes_verified
        fd2 = app2.open("/shared")
        app2.pwrite(fd2, b"y", 0)
        app2.release_all()
        # Releasing the large file verified its whole core state.
        assert kernel.stats.bytes_verified - v0 >= 256 * 1024

    def test_aux_rebuilt_after_foreign_modification(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.mkdir("/d", mode=0o777)
        app1.close(app1.creat("/d/from1", mode=0o666))
        app1.release_all()
        app2.close(app2.creat("/d/from2", mode=0o666))
        app2.release_all()
        # app1's retained aux for /d is stale; re-acquire must rebuild.
        assert sorted(app1.readdir("/d")) == ["from1", "from2"]
        app1.close(app1.creat("/d/from1b", mode=0o666))
        assert "from2" in app1.readdir("/d")


class TestRetainedStateIsVersionChecked:
    """Auxiliary state a LibFS kept across a release answers only while
    nobody has written the inode since (the kernel's per-inode version);
    each of these returned a stale or a wrong answer before that rule."""

    def test_reused_inode_slot_is_not_the_old_file(self):
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        app1.mkdir("/d", mode=0o777)
        app1.write_file("/d/f", b"first file, long gone soon")
        app1.release_all()
        ino = app2.stat("/d/f").ino
        assert app2.read_file("/d/f") == b"first file, long gone soon"
        fd = app2.open("/d/f")
        app2.release_all()
        app1.unlink("/d/f")
        app1.release_all()                      # deletion verified: slot free
        app1.write_file("/g", b"a different file in the same inode slot")
        assert app1.stat("/g").ino == ino
        app1.release_all()
        with pytest.raises(NoEntry):
            app2.read_file("/d/f")
        # Nor does a descriptor opened on the old file reach the new one:
        # typed, and before a byte is allocated or written.
        with pytest.raises(BadFileDescriptor):
            app2.pread(fd, 64, 0)
        with pytest.raises(BadFileDescriptor):
            app2.pwrite(fd, b"X" * 5000, 0)
        assert app2.read_file("/g") == b"a different file in the same inode slot"
        app2.release_all()
        assert app1.stat("/g").size == 39

    def test_reused_inode_slot_of_another_type(self):
        """What was kept of a file cannot be rebuilt into the directory
        that has its slot now (no tails, no index): it is replaced."""
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        app1.write_file("/f", b"a file")
        app1.release_all()
        ino = app2.stat("/f").ino
        app2.release_all()
        app1.unlink("/f")
        app1.release_all()
        app1.mkdir("/d", mode=0o777)
        assert app1.stat("/d").ino == ino
        app1.close(app1.creat("/d/inside", mode=0o666))
        app1.release_all()
        assert app2.readdir("/d") == ["inside"]
        app2.close(app2.creat("/d/too", mode=0o666))
        app2.release_all()
        assert app1.readdir("/d") == ["inside", "too"]

    def test_subdirectory_made_after_the_parent_was_cached(self):
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        app1.mkdir("/d", mode=0o777)
        app1.release_all()
        assert app2.readdir("/d") == []
        app2.release_all()
        app1.mkdir("/d/sub", mode=0o777)
        app1.write_file("/d/sub/f", b"below")
        app1.release_all()
        assert app2.read_file("/d/sub/f") == b"below"

    def test_read_after_a_foreign_append_sees_all_of_it(self):
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        app1.write_file("/f", b"01234")
        app1.release_all()
        assert app2.read_file("/f") == b"01234"
        app2.release_all()
        fd = app1.open("/f")
        app1.pwrite(fd, b"56789", 5)
        app1.close(fd)
        app1.release_all()
        assert app2.stat("/f").size == 10
        assert app2.read_file("/f") == b"0123456789"

    def test_readdir_after_a_foreign_create(self):
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        app1.mkdir("/d", mode=0o777)
        app1.close(app1.creat("/d/one", mode=0o666))
        app1.release_all()
        assert app2.readdir("/d") == ["one"]
        app2.release_all()
        app1.close(app1.creat("/d/two", mode=0o666))
        app1.release_all()
        assert app2.readdir("/d") == ["one", "two"]

    def test_makedirs_under_a_directory_another_session_made(self):
        _dev, _kernel, app1, app2 = two_apps(size=8 << 20)
        assert app2.readdir("/") == []          # app2 caches an empty root
        app2.release_all()
        app1.mkdir("/d", mode=0o777)
        app1.release_all()
        app2.makedirs("/d/x")
        app2.release_all()
        assert app1.readdir("/d") == ["x"]

    def test_owner_sees_the_rollback_a_revoke_ran(self):
        """The owner was granted the number from *before* its write
        acquisition moved it, and nobody tells it another when the kernel
        takes the inode back: what it kept is as stale as anybody's."""
        _dev, kernel, app1, _app2 = two_apps(size=8 << 20)
        fd = app1.creat("/f", mode=0o666)
        app1.pwrite(fd, b"stable", 0)
        app1.commit_path("/")
        app1.commit_path("/f")
        ino = app1.stat("/f").ino
        app1.pwrite(fd, b"unverified tail, rolled back", 0)
        assert app1.stat("/f").size == 28
        mi = app1.fdtable.get(fd).mi
        rec = mi.cs.read_inode(ino)
        rec.size = 1 << 40
        mi.cs.write_inode(ino, rec)
        kernel.revoke(ino)
        assert kernel.stats.rollbacks == 1
        assert app1.stat("/f").size == 6
        assert app1.read_file("/f") == b"stable"

    def test_group_member_sees_the_rollback_a_group_exit_ran(self):
        """A failed trust-group exit rolls the core state back inside
        ``acquire``, before any grant: the version moves where the kernel
        rewrites, so the member that released into the group — and was
        told the then-current number — does not keep the rolled-back image."""
        _dev, kernel, app1, app2 = two_apps(size=8 << 20, group1="g")
        app2.write_file("/shared", b"stable")
        app2.release_all()                      # verified: the rollback point
        fd = app1.open("/shared")
        app1.pwrite(fd, b"unverified tail, rolled back", 0)
        mi = app1.fdtable.get(fd).mi
        rec = mi.cs.read_inode(mi.ino)
        rec.size = 1 << 40
        mi.cs.write_inode(mi.ino, rec)
        app1.release_all()                      # into the group: unverified
        assert app1.stat("/shared").size == 28  # its own image, still current
        with pytest.raises(CorruptionDetected):
            app2.open("/shared")                # group exit: rolled back
        assert kernel.stats.rollbacks == 1
        assert app1.stat("/shared").size == 6
        assert app1.read_file("/shared") == b"stable"

    def test_a_read_only_holder_moves_nothing(self):
        """Only a *writable* acquisition advances the version, and the
        releaser is told the number it left the inode at: neither a
        reader's hold nor one's own release invalidates what a session kept."""
        _dev, kernel, app1, app2 = two_apps(size=8 << 20)
        app1.write_file("/f", b"data")
        ino = app1.stat("/f").ino
        app1.release_all()
        v = kernel.inode_version[ino]
        assert app1._inodes[ino].aux_version == v    # told at release
        assert app2.read_file("/f") == b"data"       # read acquisitions
        app2.release_all()
        assert kernel.inode_version[ino] == v
        acquires = kernel.stats.acquires
        assert app1.stat("/f").size == 4             # answered from DRAM
        assert kernel.stats.acquires == acquires


class TestReadRacingAForeignWrite:
    """A reader parked inside ``pread`` — mapping in hand, copy not yet
    made — while another application takes the file for write, overwrites
    it and releases."""

    OLD, NEW = b"o" * 8192, b"n" * 8192

    def race(self, config, monkeypatch):
        _dev, _kernel, app1, app2 = two_apps(config=config, size=8 << 20)
        app1.write_file("/f", self.OLD)
        app1.release_all()
        fd = app2.open("/f")
        parked, resume = threading.Event(), threading.Event()
        copy = CoreState.read_file_data

        def park_the_first(cs, *args):
            if not parked.is_set():
                parked.set()
                assert resume.wait(10)
            return copy(cs, *args)

        monkeypatch.setattr(CoreState, "read_file_data", park_the_first)
        read = []

        def reader():
            try:
                read.append(app2.pread(fd, len(self.OLD), 0))
            except BaseException as exc:  # noqa: BLE001
                read.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        assert parked.wait(10)
        try:
            app1.write_file("/f", self.NEW)
            app1.release_all()
            wrote = None
        except TryAgain as exc:
            wrote = exc
        resume.set()
        thread.join(10)
        assert not thread.is_alive()
        return read[0], wrote

    def test_a_borrowed_read_returns_one_whole_image(self, monkeypatch):
        """The reader owns nothing, so the writer is not held up: the
        kernel revokes the borrowed mapping before the writer gets its
        own, the parked copy faults instead of mixing two images, and the
        retry borrows the file again — as the writer left it."""
        obs.reset()
        obs.enable()
        try:
            got, wrote = self.race(ARCKFS_PLUS, monkeypatch)
            retries = obs.metrics.counter_total("readpath.pread_retries")
        finally:
            obs.disable()
            obs.reset()
        assert wrote is None
        assert got == self.NEW  # one whole image, and the writer's
        assert retries >= 1

    def test_an_unpatched_reader_holds_the_writer_up(self, monkeypatch):
        """Without §4.3 nothing retained is safe to read, so the reader
        acquired what it reads: the writer is told to try again and the
        read is the old image."""
        got, wrote = self.race(
            ARCKFS_PLUS.with_patch(locked_release=False), monkeypatch)
        assert isinstance(wrote, TryAgain) and wrote.owner == "app2"
        assert got == self.OLD


class TestTrustGroups:
    def test_intra_group_transfer_skips_verification(self):
        _dev, kernel, app1, app2 = two_apps(group1="g", group2="g")
        fd = app1.creat("/shared", mode=0o666)
        app1.pwrite(fd, b"x" * (1024 * 1024), 0)
        app1.release_all()
        skips0 = kernel.stats.group_skips
        verifs0 = kernel.stats.verifications
        fd2 = app2.open("/shared")
        app2.pwrite(fd2, b"y", 0)
        app2.release_all()
        assert kernel.stats.group_skips > skips0
        # The shared file itself was never verified during the hand-off.
        assert kernel.stats.verifications == verifs0

    def test_group_exit_verifies(self):
        _dev, kernel, app1, app2 = two_apps(group1="g", group2=None)
        fd = app1.creat("/shared", mode=0o666)
        app1.pwrite(fd, b"data", 0)
        app1.stat("/shared")
        app1.release_all()  # skipped verification (group member)
        v0 = kernel.stats.verifications
        fd2 = app2.open("/shared")  # group exit -> deferred verification
        assert kernel.stats.verifications > v0
        assert app2.pread(fd2, 10, 0) == b"data"

    def test_group_exit_detects_corruption(self):
        device, kernel, app1, app2 = two_apps(group1="g", group2=None)
        fd = app1.creat("/shared", mode=0o666)
        app1.pwrite(fd, b"good", 0)
        app1.release_all()
        # Re-acquire inside the group, corrupt, release (skips verify).
        fd = app1.open("/shared")
        mi = app1.fdtable.get(fd).mi
        app1._attach(mi.ino, write=True)
        rec = mi.cs.read_inode(mi.ino)
        rec.size = 1 << 40  # size beyond any mapped page
        mi.cs.write_inode(mi.ino, rec)
        app1.release_all()
        # Group exit: verification fires and the corruption is caught.
        with pytest.raises(CorruptionDetected):
            app2.open("/shared")


class TestInvoluntaryRelease:
    def test_revoke_mid_operation_crashes_holder(self):
        """'The LibFS may crash during an involuntary release' (§4.3) —
        even under ArckFS+, since the kernel cannot take LibFS locks."""
        from repro.concurrency.failpoints import failpoints

        _dev, kernel, app1, _app2 = two_apps()
        app1.mkdir("/d", mode=0o777)
        app1.close(app1.creat("/d/f", mode=0o666))
        app1.commit_path("/")
        dir_ino = app1.stat("/d").ino
        point = failpoints.park("dir.write_mid")
        import threading

        err = []

        def victim():
            try:
                app1.unlink("/d/f")
            except SimulatedBusError as exc:
                err.append(exc)

        t = threading.Thread(target=victim)
        t.start()
        assert point.wait_arrived()
        kernel.revoke(dir_ino)
        point.release()
        t.join(5)
        assert err, "mid-operation revocation should fault the holder"

    def test_revoked_inode_acquirable_by_other_app(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.close(app1.creat("/f", mode=0o666))
        app1.commit_path("/")  # register /f so ownership can transfer
        ino = app1.stat("/f").ino
        kernel.revoke(ino)
        kernel.acquire("app2", ino)

    def test_revoke_mid_update_rolls_back(self):
        """Revocation during an inconsistent update restores the snapshot."""
        _dev, kernel, app1, _app2 = two_apps()
        fd = app1.creat("/f", mode=0o666)
        app1.pwrite(fd, b"stable", 0)
        app1.commit_path("/")
        app1.commit_path("/f")
        ino = app1.stat("/f").ino
        # Corrupt the record, then get revoked before "finishing".
        mi = app1.fdtable.get(fd).mi
        rec = mi.cs.read_inode(ino)
        rec.size = 1 << 40
        mi.cs.write_inode(ino, rec)
        kernel.revoke(ino)
        assert kernel.stats.rollbacks >= 1
        app1.release_all()  # hand the path back
        # The rolled-back state is the committed one.
        app2 = LibFS(kernel, "app3", uid=1000)
        fd2 = app2.open("/f")
        assert app2.pread(fd2, 10, 0) == b"stable"
