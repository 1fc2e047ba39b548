"""Unit tests for the kernel components: mapping, permissions, policies,
shadow bookkeeping, verifier rejection cases, controller syscalls."""

import dataclasses
import random

import pytest

from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS_PLUS
from repro.core.invariants import read_shape
from repro.errors import (
    CorruptionDetected,
    Exists,
    InvalidArgument,
    NoEntry,
    NoSpace,
    PermissionDenied,
    SimulatedBusError,
    TryAgain,
)
from repro.kernel.controller import KernelController
from repro.kernel.permissions import READ, WRITE, check_access, may_read, may_write
from repro.kernel.policy import MarkInaccessiblePolicy
from repro.pm.device import PMDevice
from repro.pm.mapping import Mapping
from tests.conftest import build_fs
from tests.integration.test_hostile_images import walk


class TestMapping:
    #: Every accessor, with arguments that are valid while mapped.
    ACCESSES = {
        "load": (0, 1), "store": (0, b"x"), "atomic_store": (0, b"12345678"),
        "ntstore": (0, b"x"), "clwb": (0, 1), "sfence": (), "persist": (0, 1),
        "ntstore_scatter": ([(0, b"x"), (64, b"y")],),
        "load_gather": ([(0, 1), (64, 1)],),
    }

    def test_every_accessor_is_listed(self):
        public = {name for name, attr in vars(Mapping).items()
                  if callable(attr) and not name.startswith("_")}
        assert public - {"unmap"} == set(self.ACCESSES)

    def test_passthrough_then_fault(self):
        dev = PMDevice(4096)
        m = Mapping(dev, ino=7, tag="app")
        m.store(0, b"abc")
        assert m.load(0, 3) == b"abc"
        for name, args in self.ACCESSES.items():
            getattr(m, name)(*args)
        m.unmap()
        assert not m.valid
        before = dataclasses.replace(dev.stats)
        for name, args in self.ACCESSES.items():
            with pytest.raises(SimulatedBusError, match="unmapped inode 7"):
                getattr(m, name)(*args)
        assert dev.stats == before  # no faulted access reached the device


class TestPermissions:
    def test_owner_bits(self):
        assert may_write(0o600, uid=5, accessor_uid=5)
        assert not may_write(0o600, uid=5, accessor_uid=6)
        assert not may_read(0o600, uid=5, accessor_uid=6)

    def test_other_bits(self):
        assert may_read(0o604, uid=5, accessor_uid=6)
        assert not may_write(0o604, uid=5, accessor_uid=6)

    def test_root_bypasses(self):
        assert may_write(0o000, uid=5, accessor_uid=0)

    def test_check_access_raises(self):
        with pytest.raises(PermissionDenied):
            check_access(0o644, uid=5, accessor_uid=6, want=WRITE)
        check_access(0o644, uid=5, accessor_uid=6, want=READ)


class TestControllerSyscalls:
    def test_register_twice_rejected(self):
        _dev, kernel, _fs = build_fs()
        with pytest.raises(InvalidArgument):
            kernel.register_app("app1", uid=1)  # fixture registered app1

    def test_acquire_unknown_inode(self):
        _dev, kernel, _fs = build_fs()
        with pytest.raises(NoEntry):
            kernel.acquire("app1", 77)

    def test_unregistered_app_rejected(self):
        _dev, kernel, _fs = build_fs()
        with pytest.raises(InvalidArgument):
            kernel.acquire("ghost", 0)

    def test_inode_slots_exhaust(self):
        device = PMDevice(8 * 1024 * 1024)
        kernel = KernelController.fresh(device, inode_count=8)
        kernel.register_app("a", uid=0)
        for _ in range(7):  # slot 0 is the root
            kernel.alloc_inode("a")
        with pytest.raises(NoSpace):
            kernel.alloc_inode("a")

    def test_abort_inode_returns_slot(self):
        _dev, kernel, _fs = build_fs()
        before = len(kernel.free_inodes)
        ino, _gen = kernel.alloc_inode("app1")
        kernel.acquire("app1", ino)
        kernel.abort_inode("app1", ino)
        assert len(kernel.free_inodes) == before
        assert ino not in kernel.acquisitions

    def test_release_unowned_rejected(self):
        _dev, kernel, _fs = build_fs()
        with pytest.raises(InvalidArgument):
            kernel.release("app1", 0)

    def test_cross_app_acquire_names_owner_and_inode(self):
        _dev, kernel, fs = build_fs()
        fs.mkdir("/d")
        fs.release_all()
        ino = fs.stat("/d").ino
        kernel.register_app("other", uid=1000)
        kernel.acquire("other", ino, write=False)
        with pytest.raises(TryAgain) as ei:
            kernel.acquire("app1", ino)
        assert (ei.value.owner, ei.value.ino) == ("other", ino)
        assert ei.value.retryable and str(ino) in str(ei.value)
        # The rename lease has no inode and nobody to recall.
        kernel.rename_lock_acquire("other")
        with pytest.raises(TryAgain) as ei:
            kernel.rename_lock_acquire("app1", timeout=0.01)
        assert (ei.value.owner, ei.value.ino) == (None, None)

    def test_generation_bumps_per_allocation(self):
        _dev, kernel, _fs = build_fs()
        ino, gen1 = kernel.alloc_inode("app1")
        kernel.abort_inode("app1", ino)
        ino2, gen2 = kernel.alloc_inode("app1")
        assert ino2 == ino and gen2 == gen1 + 1

    def test_read_to_write_upgrade_checks_permission(self):
        _dev, kernel, fs = build_fs()
        fs.close(fs.creat("/f", mode=0o444))
        fs.commit_path("/")
        ino = fs.stat("/f").ino
        fs.release_all()
        kernel.register_app("reader", uid=4242)
        kernel.acquire("reader", ino, write=False)
        with pytest.raises(PermissionDenied):
            kernel.acquire("reader", ino, write=True)

    def test_rename_lease_expiry_is_stealable(self):
        _dev, kernel, _fs = build_fs()
        kernel.rename_lease.duration = 0.01
        kernel.register_app("app2", uid=0)
        kernel.rename_lock_acquire("app1")
        import time

        time.sleep(0.05)
        kernel.rename_lock_acquire("app2", timeout=0.5)  # stolen after expiry
        assert kernel.rename_lock_held("app2")
        assert not kernel.rename_lock_held("app1")


class TestVerifierRejections:
    def make(self):
        return build_fs(ARCKFS_PLUS)

    def _registered_file(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"x" * 100, 0)
        fs.close(fd)
        fs.commit_path("/")
        fs.commit_path("/f")
        return fs.stat("/f").ino

    def test_generation_change_rejected(self):
        _dev, kernel, fs = self.make()
        ino = self._registered_file(fs)
        mi = fs._attach(ino, write=True)
        rec = mi.cs.read_inode(ino)
        rec.gen += 5
        mi.cs.write_inode(ino, rec)
        with pytest.raises(CorruptionDetected, match="generation"):
            kernel.release("app1", ino)

    def test_type_change_rejected(self):
        _dev, kernel, fs = self.make()
        ino = self._registered_file(fs)
        mi = fs._attach(ino, write=True)
        rec = mi.cs.read_inode(ino)
        rec.itype = 2  # file -> dir
        mi.cs.write_inode(ino, rec)
        with pytest.raises(CorruptionDetected, match="type"):
            kernel.release("app1", ino)

    def test_permission_change_rejected(self):
        _dev, kernel, fs = self.make()
        ino = self._registered_file(fs)
        mi = fs._attach(ino, write=True)
        rec = mi.cs.read_inode(ino)
        rec.mode = 0o777
        mi.cs.write_inode(ino, rec)
        with pytest.raises(CorruptionDetected, match="permission"):
            kernel.release("app1", ino)

    def test_size_beyond_pages_rejected(self):
        _dev, kernel, fs = self.make()
        ino = self._registered_file(fs)
        mi = fs._attach(ino, write=True)
        mi.cs.set_file_size(ino, 1 << 40)
        with pytest.raises(CorruptionDetected, match="size"):
            kernel.release("app1", ino)

    def test_foreign_page_claim_rejected(self):
        """An inode claiming a page owned by another inode fails (I2)."""
        import struct

        _dev, kernel, fs = self.make()
        ino = self._registered_file(fs)
        fd2 = fs.creat("/other")
        fs.pwrite(fd2, b"y" * 5000, 0)
        fs.close(fd2)
        fs.commit_path("/")
        fs.commit_path("/other")
        other = fs.stat("/other").ino
        other_pages = read_shape(kernel.core, other, kernel.core.read_inode(other)).data
        # Point /f's first index slot at /other's page.
        mi = fs._attach(ino, write=True)
        rec = mi.cs.read_inode(ino)
        idx_page = kernel.core.index_pages(rec)[0]
        addr = kernel.geom.page_off(idx_page) + 16
        mi.mapping.store(addr, struct.pack("<Q", other_pages[0]))
        mi.mapping.persist(addr, 8)
        with pytest.raises(CorruptionDetected, match="owned by"):
            kernel.release("app1", ino)

    def test_dentry_to_unknown_inode_rejected(self):
        _dev, kernel, fs = self.make()
        fs.mkdir("/d")
        fs.commit_path("/")
        mi = fs._attach(fs.stat("/d").ino, write=True)

        cursor = mi.cursors[0]
        mi.cs.append_dentry(
            mi.ino, mi.record, 0, cursor, b"phantom", 99, 1, 1, 1, fs.alloc,
            fence_before_marker=True)
        with pytest.raises(CorruptionDetected, match="unknown inode"):
            kernel.release("app1", mi.ino)


class TestPoolReservedPages:
    """A page a thread's pool only reserved has its bitmap bit set, but it
    is nobody's: the verifier must not accept it into a file, and a
    rollback that takes back a page a refill pooled must take it out of
    the pool.  Both passed before and left ``page-unallocated`` once the
    pools drained."""

    def test_verifier_rejects_a_pool_reserved_page(self):
        vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
        s, alloc = vol.session("a", uid=0), vol.kernel.alloc
        s.write_file("/y", b"y" * 5000)
        s.release_all()
        s.write_file("/y", b"z")         # owned for write again
        s.write_file("/x", b"x" * 100)   # a refill: the pool holds pages
        ino = s.stat("/y").ino
        cs = s.fs._inodes[ino].cs
        cs.store_index_slots(cs.index_pages(cs.read_inode(ino)), 1,
                             [min(alloc.pooled_pages())])
        vol.device.sfence()
        with pytest.raises(CorruptionDetected, match="not allocated"):
            s.release_all()
        assert vol.kernel.stats.rollbacks == 1
        s.close()
        assert vol.fsck().clean
        assert vol.session("b").read_file("/y") == b"y" * 5000

    def test_rollback_takes_its_pages_back_from_a_pool(self):
        vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
        s, alloc = vol.session("a", uid=0), vol.kernel.alloc
        s.write_file("/y", b"y" * 9000)
        s.release_all()
        ino = s.stat("/y").ino
        s.truncate("/y", 0)              # frees /y's data pages
        alloc.drain_pools()
        alloc._hint_byte = 0             # the next refill finds them
        alloc.free(alloc.alloc())        # and pools them
        freed = alloc.pooled_pages()
        s.fs._inodes[ino].cs.set_file_size(ino, 1 << 40)
        with pytest.raises(CorruptionDetected, match="capacity"):
            s.release_all()
        shape = read_shape(vol.kernel.core, ino, vol.kernel.core.read_inode(ino))
        taken_back = set(shape.data) & freed
        assert taken_back
        assert taken_back <= alloc.allocated_set()
        assert not taken_back & alloc.pooled_pages()
        s.close()
        assert vol.fsck().clean
        assert vol.session("b").read_file("/y") == b"y" * 9000


class TestRollbackOverAnotherFile:
    """A page a rolled-back file freed since its snapshot and another file
    took since is that file's: the rollback used to store the snapshot
    into it and re-own it, so the other file read the rolled-back file's
    bytes (or its release failed on its overwritten index page)."""

    def test_a_rollback_that_would_write_over_another_file_marks_instead(self):
        vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
        s, alloc = vol.session("a", uid=0), vol.kernel.alloc
        s.write_file("/y", b"y" * 9000)
        s.release_all()
        ino = s.stat("/y").ino
        snapshot_pages = set(vol.kernel.inode_pages[ino])
        s.truncate("/y", 0)              # frees /y's data pages
        alloc.drain_pools()
        alloc._hint_byte = 0             # the next refill finds them
        s.write_file("/x", b"x" * 9000)  # and /x takes them
        x = s.fs._inodes[s.stat("/x").ino]
        assert snapshot_pages & set(x.pages)
        s.fs._inodes[ino].cs.set_file_size(ino, 1 << 40)
        with pytest.raises(CorruptionDetected, match="capacity"):
            s.release_all()
        assert s.read_file("/x") == b"x" * 9000
        stats = vol.kernel.stats
        assert (stats.rollbacks, stats.marked_inaccessible) == (0, 1)
        s.close()                        # /x's release verifies it
        # What is left is /y's own corruption, fenced off.
        assert {f.ino for f in vol.fsck().findings} == {ino}
        b = vol.session("b")
        assert b.read_file("/x") == b"x" * 9000
        with pytest.raises(PermissionDenied, match="inaccessible"):
            b.read_file("/y")


class TestVerifyOnTransfer:
    """The one rule for *when* the kernel verifies: every transfer out of an
    application runs the verdict path, so a released inode is a verified
    one and the releaser is the one who hears about it."""

    @staticmethod
    def stream(vol, sessions, seed, turns=40):
        """Seeded turns: one session works alone — namespace ops in its own
        directory, data ops there and on the shared files — then hands back
        everything it holds, some files by kernel revoke, the rest by
        ``release_all``."""
        rng = random.Random(seed)
        kernel = vol.kernel
        first = sessions[0]
        first.mkdir("/shared")
        for i in range(4):
            first.write_file(f"/shared/s{i}", b"0" * 3000)
        for s in sessions:
            first.mkdir(f"/{s.app_id}")
        first.release_all()
        for turn in range(turns):
            s = sessions[turn % len(sessions)]
            for _ in range(rng.randrange(1, 8)):
                op = rng.choice(["create", "write", "read", "rename",
                                 "unlink", "commit"])
                own = f"/{s.app_id}/f{rng.randrange(4)}"
                path = rng.choice([own, f"/shared/s{rng.randrange(4)}"])
                try:
                    if op == "create":
                        s.write_file(own, b"c" * rng.randrange(1, 9000))
                    elif op == "write":
                        fd = s.open(path)
                        s.pwrite(fd, b"w" * rng.randrange(1, 5000),
                                 rng.randrange(8192))
                        s.close(fd)
                    elif op == "read":
                        s.read_file(path)
                    elif op == "rename":
                        s.rename(own, f"/{s.app_id}/f{rng.randrange(4)}")
                    elif op == "unlink":
                        s.unlink(own)
                    else:
                        s.commit_path(path.rsplit("/", 1)[0])
                        s.commit_path(path)
                except (NoEntry, Exists):
                    pass  # the stream is random; the volume stays clean
            for ino in sorted(kernel.acquisitions):
                sh = kernel.shadow.get(ino)
                if sh is not None and not sh.is_dir and rng.random() < 0.3:
                    kernel.revoke(ino)
            s.release_all()
            assert not kernel.acquisitions

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_every_transfer_is_one_verification(self, seed):
        with Volume.create(16 << 20, VolumeConfig(inode_count=128)) as vol:
            self.stream(vol, [vol.session("a", uid=0),
                              vol.session("b", uid=0)], seed)
            st = vol.kernel.stats
            assert min(st.commits, st.releases, st.revokes) > 0
            assert st.verifications == st.commits + st.releases + st.revokes
            assert st.group_skips == 0 and st.rollbacks == 0
            assert vol.fsck().clean

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_a_trust_group_defers_to_its_exit_and_nowhere_else(self, seed):
        """§5.4 is the only deferral left: inside the group a release skips
        (unless the inode was never registered — nothing to defer against),
        and each inode the group dirtied is verified once, when an outsider
        first takes it."""
        with Volume.create(16 << 20, VolumeConfig(inode_count=128)) as vol:
            kernel, st = vol.kernel, vol.kernel.stats
            self.stream(vol, [vol.session("a", uid=0, group="g"),
                              vol.session("b", uid=0, group="g")], seed)
            assert st.group_skips > 0
            assert st.verifications == (st.commits + st.revokes
                                        + st.releases - st.group_skips)

            def dirty():
                return {ino for ino, sh in kernel.shadow.items()
                        if sh.trusted_dirty_group is not None}

            pending_exits = dirty()
            assert pending_exits
            verified, released = st.verifications, st.releases
            with vol.session("outsider", uid=0) as outsider:
                walk(outsider)
            assert not dirty()
            assert st.verifications - verified == (
                len(pending_exits) + st.releases - released)
            assert st.rollbacks == 0 and vol.fsck().clean

    def test_the_releaser_is_told_and_the_next_owner_is_not(self):
        """A's unverified write and A's forgery are A's problem: its own
        release raises, the file rolls back to what A acquired, and B opens
        it without hearing about any of it."""
        with Volume.create(16 << 20, VolumeConfig(inode_count=64)) as vol:
            kernel = vol.kernel
            a = vol.session("a", uid=1000)
            b = vol.session("b", uid=1000)
            a.write_file("/hot", b"good" * 1024)
            a.release_all()
            fd = a.open("/hot")
            a.pwrite(fd, b"dirty-write", 0)
            a.close(fd)
            ino = a.stat("/hot").ino
            rec = kernel.core.read_inode(ino)
            rec.uid = 4242  # a LibFS may never change ownership (§4)
            kernel.core.write_inode(ino, rec)
            with pytest.raises(CorruptionDetected, match="owner changed"):
                a.release_all()
            assert kernel.stats.rollbacks == 1
            assert ino not in kernel.acquisitions
            assert b.read_file("/hot") == b"good" * 1024
            b.release_all()
            assert vol.fsck().clean


class TestMarkInaccessiblePolicy:
    def test_corrupt_inode_is_fenced_off(self):
        device = PMDevice(16 * 1024 * 1024)
        kernel = KernelController.fresh(
            device, inode_count=128, config=ARCKFS_PLUS,
            policy=MarkInaccessiblePolicy())
        from repro.libfs.libfs import LibFS

        fs = LibFS(kernel, "app1", uid=0, config=ARCKFS_PLUS)
        fd = fs.creat("/f")
        fs.close(fd)
        fs.commit_path("/")
        fs.commit_path("/f")
        ino = fs.stat("/f").ino
        mi = fs._attach(ino, write=True)
        mi.cs.set_file_size(ino, 1 << 40)
        with pytest.raises(CorruptionDetected):
            kernel.release("app1", ino)
        assert kernel.stats.marked_inaccessible == 1
        kernel.register_app("app2", uid=0)
        with pytest.raises(PermissionDenied, match="inaccessible"):
            kernel.acquire("app2", ino)
