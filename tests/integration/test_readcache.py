"""The cross-app read-mostly mapping cache (zero-crossing reads).

A verified release of a regular file publishes it into the kernel's shared
read-only table; other applications with the §4.3 patch then read-attach
with **no kernel crossing**.  Any write acquisition (or deletion)
invalidates the entry and revokes every handed-out mapping before the
writer proceeds.
"""

import pytest

from repro import obs
from repro.core.config import ARCKFS_PLUS
from repro.errors import InvalidArgument, PermissionDenied, SimulatedBusError
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


def two_apps(config2=ARCKFS_PLUS):
    device = PMDevice(64 * 1024 * 1024)
    kernel = KernelController.fresh(device, inode_count=256, config=ARCKFS_PLUS)
    app1 = LibFS(kernel, "app1", uid=1000, config=ARCKFS_PLUS)
    app2 = LibFS(kernel, "app2", uid=1000, config=config2)
    return device, kernel, app1, app2


def crossings() -> int:
    return obs.metrics.snapshot()["counters"].get("kernel.crossings", 0)


class TestPublish:
    def test_verified_release_publishes_regular_file(self):
        _dev, kernel, app1, _app2 = two_apps()
        app1.write_file("/f", b"data")
        ino = app1.stat("/f").ino
        assert kernel.readcache.published(ino) is None  # still owned
        app1.release_all()
        assert kernel.readcache.published(ino) is not None
        assert kernel.readcache.stats.publishes >= 1

    def test_directories_never_published(self):
        _dev, kernel, app1, _app2 = two_apps()
        app1.mkdir("/d")
        ino = app1.stat("/d").ino
        app1.release_all()
        assert kernel.readcache.published(ino) is None

    def test_unpatched_libfs_never_borrows_and_still_faults(self):
        """Without the §4.3 patch nothing retained is safe to read: the
        published file is acquired like any other, and a release still
        pulls the mapping out from under whoever holds it."""
        _dev, kernel, app1, app2 = two_apps(
            config2=ARCKFS_PLUS.with_patch(locked_release=False))
        app1.write_file("/f", b"data")
        ino = app1.stat("/f").ino
        app1.release_all()
        assert kernel.readcache.published(ino) is not None
        fd = app2.open("/f")
        assert app2.pread(fd, 4, 0) == b"data"
        mi = app2.fdtable.get(fd).mi
        assert not mi.borrowed and kernel.acquisitions[ino].app_id == "app2"
        assert kernel.readcache.stats.hits == 0
        stale = mi.cs  # what a thread mid-read holds
        app2.release_ino(ino)
        with pytest.raises(SimulatedBusError):
            stale.read_file_data(mi.pages, mi.size, 0, 4)


class TestBorrowingIsPermissionChecked:
    """Borrowing skips the crossing, not the check ``acquire`` makes."""

    def test_another_uid_cannot_borrow_a_private_file(self):
        _dev, kernel, app1, app2 = two_apps()
        other = LibFS(kernel, "other", uid=1001, config=ARCKFS_PLUS)
        root = LibFS(kernel, "root", uid=0, config=ARCKFS_PLUS)
        app1.close(app1.creat("/secret", mode=0o600))
        app1.write_file("/secret", b"for uid 1000 only")
        app1.write_file("/public", b"for everyone")
        ino = app1.stat("/secret").ino
        app1.release_all()
        assert kernel.readcache.published(ino) is not None
        with pytest.raises(PermissionDenied):
            other.open("/secret")
        with pytest.raises(PermissionDenied):
            other.read_file("/secret")
        with pytest.raises(PermissionDenied):
            kernel.readcache.attach("other", ino)
        assert other.read_file("/public") == b"for everyone"
        other.release_all()
        # Refused, not acquired instead: nothing of the file was handed out.
        assert ino not in kernel.acquisitions
        hits = kernel.readcache.stats.hits
        for reader in (app2, root):  # the owner's uid, and uid 0
            assert reader.read_file("/secret") == b"for uid 1000 only"
            reader.release_all()
        assert kernel.readcache.stats.hits == hits + 2

    def test_the_uid_checked_is_the_registered_one(self):
        _dev, kernel, app1, _app2 = two_apps()
        app1.close(app1.creat("/secret", mode=0o600))
        ino = app1.stat("/secret").ino
        app1.release_all()
        with pytest.raises(InvalidArgument):
            kernel.readcache.attach("nobody-registered-this", ino)


class TestZeroCrossingReads:
    def test_steady_state_reads_cost_zero_crossings(self):
        _dev, kernel, app1, app2 = two_apps()
        payload = b"published!" * 100
        app1.write_file("/f", payload)
        app1.release_all()

        # Warm app2's directory state (real acquisitions, crossings OK).
        # This already cache-attaches /f itself — zero crossings from here.
        hits0 = kernel.readcache.stats.hits
        assert app2.stat("/f").size == len(payload)
        assert kernel.readcache.stats.hits > hits0

        obs.reset()
        obs.enable()
        try:
            for _ in range(16):
                fd = app2.open("/f")
                assert app2.pread(fd, len(payload), 0) == payload
                app2.close(fd)
            snap = obs.metrics.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        # Steady state: every op revalidated the published version and
        # nothing entered the kernel in the measured window.
        assert snap.get("kernel.crossings", 0) == 0, snap
        assert kernel.readcache.stats.validations >= 16

    def test_successive_readers_share_the_published_file(self):
        _dev, kernel, app1, app2 = two_apps()
        app3 = LibFS(kernel, "app3", uid=1000, config=app1.config)
        app1.write_file("/f", b"shared-data")
        app1.release_all()
        hits0 = kernel.readcache.stats.hits
        ino = None
        for app in (app2, app3):
            # stat warms the directory chain (real read acquisitions of
            # the dirs — root ownership is exclusive, hence release_all
            # between readers) and cache-attaches the file itself.
            ino = app.stat("/f").ino
            acq_dirs = kernel.stats.acquires
            fd = app.open("/f")
            assert app.pread(fd, 64, 0) == b"shared-data"
            app.close(fd)
            # The file never cost a kernel acquisition for this reader.
            assert kernel.stats.acquires == acq_dirs
            app.release_all()
        assert kernel.readcache.stats.hits >= hits0 + 2
        assert ino not in kernel.acquisitions


class TestInvalidation:
    def test_write_acquire_revokes_and_readers_see_new_data(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.write_file("/f", b"version-one")
        app1.release_all()
        fd2 = app2.open("/f")
        assert app2.pread(fd2, 64, 0) == b"version-one"
        inv0 = kernel.readcache.stats.invalidations

        # app1 takes the file back for write: the published entry must be
        # invalidated before app1's mapping is granted.
        app1.write_file("/f", b"version-two")
        assert kernel.readcache.stats.invalidations > inv0
        app1.release_all()  # republish at a new version

        # app2's cached mapping was revoked; its next read revalidates,
        # re-attaches and sees the new bytes.
        assert app2.pread(fd2, 64, 0) == b"version-two"
        app2.close(fd2)

    def test_unlink_invalidates(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.write_file("/f", b"doomed")
        app1.release_all()
        ino = app1.stat("/f").ino
        assert kernel.readcache.published(ino) is not None
        app1.unlink("/f")
        app1.release_all()
        assert kernel.readcache.published(ino) is None

    def test_cached_reader_promotes_to_writer(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.write_file("/f", b"aaaa")
        app1.release_all()
        fd2 = app2.open("/f")
        assert app2.pread(fd2, 4, 0) == b"aaaa"  # cache-attached
        app2.pwrite(fd2, b"bbbb", 0)  # promote: real write acquisition
        app2.close(fd2)
        app2.release_all()
        # The ping-pong stays coherent: app1 re-reads app2's bytes.
        assert app1.read_file("/f") == b"bbbb"


class TestLocalRelease:
    def test_cache_attached_release_skips_the_kernel(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.write_file("/f", b"data")
        app1.release_all()
        fd2 = app2.open("/f")
        assert app2.pread(fd2, 4, 0) == b"data"
        app2.close(fd2)
        ino = app2.stat("/f").ino
        rel0 = kernel.stats.releases
        app2.release_ino(ino)
        assert kernel.stats.releases == rel0  # handed back locally
        # And the read still works afterwards (re-attach via the cache).
        assert app2.read_file("/f") == b"data"

    def test_shutdown_returns_handouts(self):
        _dev, kernel, app1, app2 = two_apps()
        app1.write_file("/f", b"data")
        app1.release_all()
        ino = app1.stat("/f").ino
        fd2 = app2.open("/f")
        assert app2.pread(fd2, 4, 0) == b"data"
        app2.shutdown()
        # No mapping left handed out for the inode after app2 is gone.
        assert ino not in kernel.readcache._handouts
