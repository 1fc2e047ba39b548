"""Lease-based read delegation end-to-end (the tentpole's deferral arm).

A LibFS re-acquiring a file it just released within the delegation window
skips re-verification; any cross-app acquisition, a lapsed window, or an
orderly shutdown runs the deferred verification first — so no unverified
state is ever observed across protection domains.
"""

import time

import pytest

from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS_PLUS
from repro.errors import CorruptionDetected


def make_volume(window=30.0):
    return Volume.create(32 * 1024 * 1024, VolumeConfig(
        config=ARCKFS_PLUS.with_patch(verify_delegation=True,
                                      delegation_window=window),
        inode_count=128))


def hot_ino(kernel):
    return kernel.shadow[0].children[b"hot"]


class TestDelegation:
    def test_same_app_reacquire_skips_verification(self):
        with make_volume() as vol:
            kernel = vol.kernel
            a = vol.session("app1", uid=1000)
            a.write_file("/hot", b"x" * 8192)
            a.release_all()
            v0 = kernel.stats.verifications
            for _ in range(3):
                fd = a.open("/hot")
                assert a.pread(fd, 4, 0) == b"xxxx"
                a.close(fd)
                a.release_all()
            # Releases deferred, re-acquires hit the lease: no verification
            # of the file ran in the loop (the root directory still pays —
            # directories are never delegated).
            assert kernel.stats.delegation_hits >= 2
            assert kernel.stats.delegated_releases >= 3
            file_verifies = [ino for ino in (hot_ino(kernel),)
                             if ino in kernel._deferred]
            assert file_verifies  # still deferred, nobody verified it
            assert kernel.stats.verifications - v0 <= 3 + 1  # root only

    def test_cross_app_write_revokes_and_verifies_first(self):
        with make_volume() as vol:
            kernel = vol.kernel
            a = vol.session("app1", uid=1000)
            b = vol.session("app2", uid=1000)
            a.write_file("/hot", b"a" * 4096)
            a.release_all()
            fd = a.open("/hot")
            a.pwrite(fd, b"A" * 4096, 0)
            a.close(fd)
            a.release_all()  # deferred under the lease
            ino = hot_ino(kernel)
            assert ino in kernel._deferred
            d0 = kernel.stats.deferred_verifications
            fd = b.open("/hot")  # cross-app: revoke + deferred verify NOW
            assert kernel.stats.deferred_verifications == d0 + 1
            assert ino not in kernel._deferred
            assert b.pread(fd, 4, 0) == b"AAAA"  # the verified write
            b.pwrite(fd, b"B" * 4096, 0)
            b.close(fd)
            b.release_all()

    def test_lapsed_window_verifies_on_reacquire(self):
        with make_volume(window=0.01) as vol:
            kernel = vol.kernel
            a = vol.session("app1", uid=1000)
            a.write_file("/hot", b"y" * 4096)
            a.release_all()
            fd = a.open("/hot")
            assert a.pread(fd, 4, 0) == b"yyyy"  # acquisition is lazy
            a.close(fd)
            a.release_all()
            assert kernel.stats.delegated_releases == 1
            time.sleep(0.05)  # past the window
            d0 = kernel.stats.deferred_verifications
            fd = a.open("/hot")
            assert a.pread(fd, 4, 0) == b"yyyy"
            a.close(fd)
            assert kernel.stats.deferred_verifications == d0 + 1
            assert kernel.stats.delegation_hits == 0

    def test_corruption_under_delegation_caught_at_revoke(self):
        """An in-window corruption is caught when the lease is revoked, and
        the rollback discards the never-verified delegated write."""
        with make_volume() as vol:
            kernel = vol.kernel
            a = vol.session("app1", uid=1000)
            b = vol.session("app2", uid=1000)
            a.write_file("/hot", b"good" * 1024)
            a.release_all()
            fd = a.open("/hot")
            a.pwrite(fd, b"dirty-delegated-write", 0)
            a.close(fd)
            a.release_all()  # deferred — nobody has verified the pwrite
            ino = hot_ino(kernel)
            rec = kernel.core.read_inode(ino)
            rec.uid = 4242  # a LibFS may never change ownership (§4)
            kernel.core.write_inode(ino, rec)
            with pytest.raises(CorruptionDetected):
                b.open("/hot")
            assert kernel.stats.rollbacks >= 1
            # Rolled back to the pre-dirty snapshot: the delegated write is
            # gone along with the corruption.
            assert b.read_file("/hot")[:4] == b"good"
            b.release_all()

    def test_drain_on_close_leaves_clean_volume(self):
        vol = make_volume()
        with vol:
            a = vol.session("app1", uid=1000)
            for i in range(4):
                a.write_file(f"/f{i}", b"z" * 4096)
            a.release_all()
            for i in range(4):
                fd = a.open(f"/f{i}")
                assert a.pread(fd, 1, 0) == b"z"  # acquisition is lazy
                a.close(fd)
            a.release_all()
            assert len(vol.kernel._deferred) >= 1
            drained = vol.quiesce()
            assert drained >= 1
            assert not vol.kernel._deferred
            report = vol.fsck()
            assert report.clean, report.summary()
        # Closing the volume (sessions shut down) leaves nothing deferred.
        assert not vol.kernel._deferred

    def test_session_shutdown_drains_own_delegations(self):
        with make_volume() as vol:
            kernel = vol.kernel
            with vol.session("app1", uid=1000) as a:
                a.write_file("/hot", b"w" * 4096)
                a.release_all()
                fd = a.open("/hot")
                assert a.pread(fd, 1, 0) == b"w"  # acquisition is lazy
                a.close(fd)
                a.release_all()
                assert kernel._deferred
            assert not kernel._deferred  # app_shutdown verified them
