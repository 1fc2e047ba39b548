"""Transaction crash-atomicity end-to-end: every crash state is all-or-none.

The contract under test: a crash *anywhere* inside ``Tx.commit`` leaves a
volume that, after mount-time recovery, shows either every staged op or
none of them — never a prefix.  The seal (one 8-byte atomic store of the
log chain's head) is the commit point; these tests enumerate the device's
reachable crash images around it and mount each one.

Also here: the roll-forward (``TxCommitPending``) and rollback
(``TxAborted``) halves of a mid-apply *failure* (not crash), including
the delegation-lease regression — a transaction aborting after dirtying
a lease-delegated file must restore the parked pre-dirty snapshot.
"""

import pytest

from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.core.corestate import CoreState
from repro.core.invariants import read_shape
from repro.core.mkfs import load_geometry
from repro.errors import CrashPoint, NoSpace, TryAgain, TxAborted, TxCommitPending
from repro.fsck import F_DIR_CYCLE, F_ORPHAN_INODE, F_TX_TORN, INJECTORS, TX_CLASSES, run_fsck
from repro.pm.crash import explore
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_KIND_TXLOG, PAGE_SIZE, PageHeader
from repro.tx.log import read_head, read_seal, seal

SIZE = 4 * 1024 * 1024


def make_volume():
    return Volume.create(SIZE, config=VolumeConfig(
        inode_count=64, crash_tracking=True))


def stage_tx(s):
    """The canonical test transaction: create+write, rename, unlink."""
    tx = s.transaction()
    tx.create("/t1")
    tx.pwrite("/t1", b"T1", 0)
    tx.rename("/pre", "/moved")
    tx.unlink("/victim")
    return tx


def populate(s):
    s.write_file("/pre", b"old")
    s.write_file("/victim", b"doomed")


def observed_state(s):
    """Classify a recovered volume: 'all', 'none', or a torn description."""
    t1 = s.read_file("/t1") if s.exists("/t1") else None
    state = (
        t1,
        s.exists("/pre"),
        s.exists("/moved"),
        s.exists("/victim"),
    )
    if state == (b"T1", False, True, False):
        return "all"
    if state == (None, True, False, True):
        return "none"
    return f"torn:{state!r}"


def crash_at(site, match=None):
    def boom(ctx):
        if match is None or match(ctx):
            raise CrashPoint(site)
    failpoints.install(site, boom)


class TestCrashAtomicity:
    """Enumerate crash images around every commit phase; mount each."""

    def run_crashed_commit(self, install):
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        install()
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        return vol

    def assert_all_or_none(self, vol, expect=("all", "none")):
        def judge(device, _point):
            mounted = Volume.mount(device)
            report = run_fsck(device)
            # No tx-torn finding may survive recovery...
            assert not TX_CLASSES & set(report.classes()), report.summary()
            assert report.clean, report.summary()
            # ...and the namespace is all-or-none.
            with mounted.session("check") as c:
                state = observed_state(c)
            assert state in expect, state
            return state
        [point] = explore(vol.device, None, judge, budget=2048)
        assert point.verdicts, "crash tracking produced no images"
        return set(point.verdicts)

    def test_crash_before_seal_shows_none(self):
        vol = self.run_crashed_commit(lambda: crash_at("tx.pre_seal"))
        seen = self.assert_all_or_none(vol)
        # The seal never published on the final image; at least one crash
        # image must show the untouched volume.
        assert "none" in seen

    def test_crash_after_seal_replays_all(self):
        vol = self.run_crashed_commit(lambda: crash_at("tx.post_seal"))
        seen = self.assert_all_or_none(vol)
        # The final durable image carries the seal: replay must reach
        # "all" for it (earlier images may still predate the seal fence).
        final = Volume.mount(vol.device.durable_image())
        with final.session("check") as c:
            assert observed_state(c) == "all"
        assert "all" in seen

    def test_crash_mid_undo_replays_all(self):
        """A failed apply is undone before the seal is cleared: a crash
        inside the undo (here as it unlinks the created ``/t1``) finds the
        seal and replays the whole transaction."""
        def fail_on_unlink(ctx):
            if ctx[1] == 3:
                raise TryAgain("injected apply failure")

        vol = self.run_crashed_commit(lambda: (
            failpoints.install("tx.apply_op", fail_on_unlink),
            crash_at("dir.write_mid", match=lambda path: path == "/t1")))
        seen = self.assert_all_or_none(vol)
        final = Volume.mount(vol.device.durable_image())
        with final.session("check") as c:
            assert observed_state(c) == "all"
        assert "all" in seen

    @pytest.mark.parametrize("op_index", [0, 1, 2, 3])
    def test_crash_mid_apply_replays_all(self, op_index):
        vol = self.run_crashed_commit(
            lambda: crash_at("tx.apply_op",
                             match=lambda ctx: ctx[1] == op_index))
        final = Volume.mount(vol.device.durable_image())
        with final.session("check") as c:
            assert observed_state(c) == "all"
        self.assert_all_or_none(vol)

    def test_crash_before_checkpoint_replays_all(self):
        vol = self.run_crashed_commit(lambda: crash_at("tx.pre_checkpoint"))
        final = Volume.mount(vol.device.durable_image())
        assert [(f.meta["valid"], f.meta["ops"])
                for f in final.recovery.by_class(F_TX_TORN)] == [(True, 4)]
        assert final.recovery.repairs[F_TX_TORN] == 1
        with final.session("check") as c:
            assert observed_state(c) == "all"
        self.assert_all_or_none(vol)

    def test_concurrent_non_tx_traffic_survives_independently(self):
        """A non-tx write racing the commit persists on its own terms —
        the transaction's atomicity never extends to (or swallows) it."""
        vol = make_volume()
        s = vol.session("app")
        noise = vol.session("noise")
        populate(s)
        tx = stage_tx(s)
        s.release_all()  # staging only read; let the noise writer in

        def interleave_then_crash(_ctx):
            noise.write_file("/noise", b"independent")
            noise.release_all()
            raise CrashPoint("post_seal")

        failpoints.install("tx.post_seal", interleave_then_crash)
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()

        final = Volume.mount(vol.device.durable_image())
        with final.session("check") as c:
            assert observed_state(c) == "all"
            assert c.read_file("/noise") == b"independent"
        assert run_fsck(final.device).clean


OLD_PAGE, NEW_PAGE = b"o" * PAGE_SIZE, b"N" * PAGE_SIZE


class TestCrashAtEveryFence:
    """The commit phases fence once each, and an overwrite of mapped bytes
    rides the apply's closing fence: crash in front of every fence of a
    commit that overwrites pages of two files, extends a third past EOF and
    creates a fourth, and every image recovers to all or nothing."""

    ALL = (OLD_PAGE + NEW_PAGE, NEW_PAGE + OLD_PAGE,
           b"c" * 100 + bytes(2900) + b"C" * 5000, b"d" * 300)
    NONE = (OLD_PAGE * 2, OLD_PAGE * 2, b"c" * 100, None)

    def volume(self, devices):
        vol = Volume.create(SIZE, config=VolumeConfig(
            inode_count=64, crash_tracking=True, devices=devices))
        with vol.session("setup") as s:
            s.write_file("/a", OLD_PAGE * 2)
            s.write_file("/b", OLD_PAGE * 2)
            s.write_file("/c", b"c" * 100)
        return vol

    def commit(self, vol):
        """Commit the transaction once, judging the images of a crash in
        front of each fence it issues; returns each fence's states."""
        tx = vol.session("app").transaction()
        tx.pwrite("/a", NEW_PAGE, PAGE_SIZE)
        tx.pwrite("/b", NEW_PAGE, 0)
        tx.pwrite("/c", b"C" * 5000, 3000)
        tx.create("/d")
        tx.pwrite("/d", b"d" * 300, 0)
        *fences, _end = explore(vol.device, tx.commit,
                                lambda device, _point: self.state(device),
                                budget=16)
        return [set(p.verdicts) for p in fences]

    def state(self, source):
        mounted = Volume.mount(source)
        assert run_fsck(mounted.device).clean
        with mounted.session("check") as c:
            got = tuple(c.read_file(p) for p in ("/a", "/b", "/c")) + (
                c.read_file("/d") if c.exists("/d") else None,)
        assert got in (self.ALL, self.NONE), got
        return "all" if got == self.ALL else "none"

    @pytest.mark.parametrize("devices", [1, 4])
    def test_every_fence_recovers_all_or_nothing(self, devices):
        vol = self.volume(devices)
        seen = self.commit(vol)
        assert self.state(vol.device.durable_image()) == "all"
        # Until the seal's fence nothing is sealed; only in front of it may
        # an image go either way; once it is durable (the apply's fences
        # on), every image replays it all.
        sealed = next(i for i, states in enumerate(seen) if "all" in states)
        assert all(states == {"none"} for states in seen[:sealed]), seen
        assert all(states == {"all"} for states in seen[sealed + 1:]), seen
        assert 0 < sealed < len(seen) - 1, seen


class TestCrashAtEveryFenceOfAnUndo:
    """:class:`TestCrashAtEveryFence`'s commit failing as it creates
    ``/d``, after the three files took their writes: the undo is fenced
    before the seal clears, so an image in front of any fence shows the
    seal over the applied writes (replayed: all) or the undone files with
    or without the seal (none) — never the seal gone over a half-undone
    file."""

    @pytest.mark.parametrize("devices", [1, 4])
    def test_every_fence_recovers_all_or_nothing(self, devices):
        base = TestCrashAtEveryFence()
        vol = base.volume(devices)
        tx = vol.session("app").transaction()
        tx.pwrite("/a", NEW_PAGE, PAGE_SIZE)
        tx.pwrite("/b", NEW_PAGE, 0)
        tx.pwrite("/c", b"C" * 5000, 3000)
        tx.create("/d")
        tx.pwrite("/d", b"d" * 300, 0)

        def fail_on_create(ctx):
            if ctx[1] == 3:
                raise NoSpace("injected apply failure")

        def commit():
            with pytest.raises(TxAborted):
                tx.commit()

        failpoints.install("tx.apply_op", fail_on_create)
        *fences, _end = explore(vol.device, commit,
                                lambda device, _point: base.state(device),
                                budget=16)
        assert base.state(vol.device.durable_image()) == "none"
        assert {"all", "none"} <= set().union(*(p.verdicts for p in fences))


class TestBackToBackCommits:
    """Two commits on one thread: the second's log lands on the pages the
    first's checkpoint recycled, so until its seal's fence an image may
    show a stale log under a fresh seal, or tags over a sealed chain —
    and every image still mounts to a prefix of the two commits."""

    FILES = ("/a", "/b", "/c")

    def tx3(self, s, byte):
        with s.transaction() as tx:
            for path in self.FILES:
                tx.pwrite(path, byte * PAGE_SIZE, PAGE_SIZE)

    def state(self, source):
        """The one letter every file's page 1 holds (fsck clean)."""
        mounted = Volume.mount(source)
        assert run_fsck(mounted.device).clean
        with mounted.session("check") as c:
            got = {c.read_file(p) for p in self.FILES}
        assert len(got) == 1, got                    # all-or-nothing
        (data,) = got
        assert data[:PAGE_SIZE] == OLD_PAGE and len(data) == 2 * PAGE_SIZE
        assert len(set(data[PAGE_SIZE:])) == 1, data[PAGE_SIZE:PAGE_SIZE + 8]
        return data[PAGE_SIZE:PAGE_SIZE + 1]

    def test_every_image_mounts_to_a_prefix(self, monkeypatch):
        from repro.tx import manager
        vol = make_volume()
        s = vol.session("app")
        for path in self.FILES:
            s.write_file(path, OLD_PAGE * 2)
        self.tx3(s, b"w")                            # warm: log pages pooled
        real, logs = manager.write_log, []

        def spy(*args):
            logs.append(real(*args))
            return logs[-1]

        monkeypatch.setattr(manager, "write_log", spy)
        points = explore(vol.device, lambda: (self.tx3(s, b"x"), self.tx3(s, b"y")),
                         lambda device, _point: self.state(device), budget=24)
        assert len(logs) == 2 and logs[0] == logs[1]  # the same pages
        seen = [set(p.verdicts) for p in points]
        assert seen[-1] == {b"y"} and self.state(vol.device.durable_image()) == b"y"
        # Each point shows one commit's before or after, and never an older
        # commit than a point before it did.
        spans = [sorted(map(b"wxy".index, states)) for states in seen]
        assert all(span[-1] - span[0] <= 1 for span in spans), seen
        assert [span[0] for span in spans] == sorted(span[0] for span in spans), seen
        assert set().union(*seen) == {b"w", b"x", b"y"}


class TestRecovery:
    def test_replay_is_idempotent_over_repeated_mounts(self):
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        crash_at("tx.pre_checkpoint")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        image = vol.device.durable_image()

        dev = PMDevice.from_image(image)
        first = Volume.mount(dev)
        assert [(f.meta["valid"], f.meta["ops"])
                for f in first.recovery.by_class(F_TX_TORN)] == [(True, 4)]
        assert first.recovery.repairs[F_TX_TORN] == 1
        assert read_head(dev) == 0
        # Mounting the *recovered* device again replays nothing.
        second = Volume.mount(dev)
        assert not second.recovery.by_class(F_TX_TORN)
        with second.session("check") as c:
            assert observed_state(c) == "all"

    def test_corrupt_sealed_log_is_discarded(self):
        vol = make_volume()
        with vol.session("app") as s:
            s.write_file("/keep", b"kept")
        dev = PMDevice.from_image(vol.device.durable_image())
        seal(dev, 9_999_999, 0)  # head pointing nowhere
        mounted = Volume.mount(dev)
        assert [f.meta["valid"] for f in mounted.recovery.by_class(F_TX_TORN)] == [False]
        assert mounted.recovery.repairs[F_TX_TORN] == 1
        assert read_head(dev) == 0
        with mounted.session("check") as c:
            assert c.read_file("/keep") == b"kept"
        assert run_fsck(dev, repair=True).clean

    def test_a_seal_whose_tag_is_not_the_log_crc_is_discarded(self):
        """The log rides the seal's fence, so a crash before it can find
        the seal on media over a torn log, or over a stale one on reused
        pages: no CRC there equals the seal's tag, and mount discards it."""
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        crash_at("tx.post_seal")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        image = vol.device.durable_image()
        replayed = Volume.mount(image)
        with replayed.session("check") as c:
            assert observed_state(c) == "all"
        dev = PMDevice.from_image(image)
        head, tag = read_seal(dev)
        seal(dev, head, tag ^ 1)
        mounted = Volume.mount(dev)
        assert [f.meta["valid"] for f in mounted.recovery.by_class(F_TX_TORN)] == [False]
        assert mounted.recovery.repairs[F_TX_TORN] == 1
        assert read_head(dev) == 0
        with mounted.session("check") as c:
            assert observed_state(c) == "none"
        assert run_fsck(dev).clean

    @pytest.mark.parametrize("shape", ["directory-log", "log-like-data"])
    def test_sealed_head_on_a_live_page_frees_nothing(self, shape):
        """A head that reaches a live page is discarded without freeing
        it: a directory's log page is not a log page, and a file's data
        page that merely looks like one has an owner."""
        vol = make_volume()
        fake = PageHeader(next_page=0, used=64, kind=PAGE_KIND_TXLOG).pack()
        with vol.session("app") as s:
            s.mkdir("/d")
            s.write_file("/d/keep", fake + b"k" * 100)
            d_ino, f_ino = s.stat("/d").ino, s.stat("/d/keep").ino
        core = vol.kernel.core
        if shape == "directory-log":
            page = next(p for p in core.read_inode(d_ino).tails if p)
        else:
            page = read_shape(core, f_ino, core.read_inode(f_ino)).data[0]
        dev = PMDevice.from_image(vol.device.durable_image())
        seal(dev, page, 0)
        mounted = Volume.mount(dev)
        assert [f.meta["valid"] for f in mounted.recovery.by_class(F_TX_TORN)] == [False]
        assert mounted.recovery.repairs[F_TX_TORN] == 1
        assert read_head(dev) == 0
        assert mounted.kernel.alloc.is_allocated(page)
        assert run_fsck(dev).clean
        with mounted.session("check") as c:
            assert c.readdir("/d") == ["keep"]
            assert c.read_file("/d/keep") == fake + b"k" * 100

    def test_fsck_repair_replays_without_a_mount(self):
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        crash_at("tx.pre_checkpoint")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        dev = PMDevice.from_image(vol.device.durable_image())

        report = run_fsck(dev)
        assert not report.clean
        assert len(report.by_class(F_TX_TORN)) == 1
        repaired = run_fsck(dev, repair=True)
        assert repaired.clean
        assert repaired.repairs.get(F_TX_TORN) == 1
        mounted = Volume.mount(dev)
        assert not mounted.recovery.by_class(F_TX_TORN)  # fsck already replayed
        with mounted.session("check") as c:
            assert observed_state(c) == "all"


    def test_a_replay_leaves_nothing_reserved(self):
        """A crash before the checkpoint, warm: mount's replay and
        ``fsck --repair``'s retire the log without recycling its pages."""
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        for i in range(3):
            with s.transaction() as tx:
                tx.pwrite("/pre", b"w%d" % i, 0)
        tx = stage_tx(s)
        crash_at("tx.pre_checkpoint")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        image = vol.device.durable_image()
        mounted = Volume.mount(image)
        assert mounted.recovery.repairs[F_TX_TORN] == 1
        assert mounted.kernel.alloc.pooled_pages() == set()
        assert not run_fsck(mounted.device).findings
        repaired = run_fsck(PMDevice.from_image(image), repair=True)
        assert repaired.repairs[F_TX_TORN] == 1 and not repaired.findings

    def test_fsck_repair_quarantines_an_orphan_before_it_replays(self):
        """An orphan beside a sealed pending log: repair used to replay
        first, through a mount that reclaimed the orphan, and ended with
        only ``{'tx-torn': 1}`` and no ``/lost+found``."""
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        crash_at("tx.pre_checkpoint")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        dev = PMDevice.from_image(vol.device.durable_image())
        inject, cls = INJECTORS["orphan-inode"]
        inject(dev)
        (orphan,) = run_fsck(dev).by_class(cls)
        gen = CoreState(dev, vol.kernel.geom).read_inode(orphan.ino).gen
        repaired = run_fsck(dev, repair=True)
        assert repaired.clean
        assert (repaired.repairs[F_ORPHAN_INODE], repaired.repairs[F_TX_TORN]) == (1, 1)
        mounted = Volume.mount(dev)
        assert not mounted.recovery.findings
        with mounted.session("check", uid=0) as c:
            assert observed_state(c) == "all"
            assert c.readdir("/lost+found") == [f"ino{orphan.ino}.g{gen}"]

    def crashed_after_seal(self, log):
        """A volume whose two directories ``/c1`` (holding ``keep``) and
        ``/c2`` come first in the inode table, crashed with the canonical
        transaction sealed but not applied; ``log="corrupt"`` breaks the
        seal's tag.  Returns the crash image's device."""
        vol = make_volume()
        s = vol.session("app")
        s.mkdir("/c1")
        s.mkdir("/c2")
        s.write_file("/c1/keep", b"kept")
        populate(s)
        tx = stage_tx(s)
        crash_at("tx.post_seal")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        dev = PMDevice.from_image(vol.device.durable_image())
        if log == "corrupt":
            head, tag = read_seal(dev)
            seal(dev, head, tag ^ 1)
        return dev

    @pytest.mark.parametrize("log", ["valid", "corrupt"])
    def test_fsck_repair_quarantines_a_cut_cycle_before_the_log(self, log):
        """Cutting a directory cycle makes an orphan root of the former
        cycle.  A replay (or a discard) through mount in the same pass
        found that orphan and reclaimed the whole cycle."""
        dev = self.crashed_after_seal(log)
        INJECTORS["dir-cycle"][0](dev)
        assert {F_DIR_CYCLE, F_TX_TORN} <= set(run_fsck(dev).classes())
        repaired = run_fsck(dev, repair=True)
        assert repaired.clean, repaired.summary()
        assert {cls: repaired.repairs.get(cls) for cls in
                (F_DIR_CYCLE, F_ORPHAN_INODE, F_TX_TORN)} == {
            F_DIR_CYCLE: 1, F_ORPHAN_INODE: 1, F_TX_TORN: 1}
        mounted = Volume.mount(dev)
        assert not mounted.recovery.findings
        with mounted.session("check", uid=0) as c:
            assert observed_state(c) == ("all" if log == "valid" else "none")
            (root,) = c.readdir("/lost+found")
            assert c.readdir(f"/lost+found/{root}") == ["keep", "loop-b"]
            assert c.read_file(f"/lost+found/{root}/keep") == b"kept"

    def test_fsck_repair_keeps_the_log_pending_beside_an_orphan_it_cannot_move(self):
        """With no inode slot left for ``/lost+found``, an orphan is reported,
        not repaired; the replay's mount would reclaim it, so the log stays
        pending and reported too."""
        dev = self.crashed_after_seal("valid")
        geom = load_geometry(dev)
        while True:
            try:
                INJECTORS["orphan-inode"][0](dev)
            except RuntimeError:
                break  # every slot taken
        orphans = [f.ino for f in run_fsck(dev).by_class(F_ORPHAN_INODE)]
        assert orphans
        repaired = run_fsck(dev, repair=True)
        assert set(repaired.classes()) == {F_ORPHAN_INODE, F_TX_TORN}
        assert not {F_ORPHAN_INODE, F_TX_TORN} & set(repaired.repairs)
        core = CoreState(dev, geom)
        assert all(core.read_inode(ino).valid for ino in orphans)
        assert read_head(dev) != 0


class TestApplyFailure:
    """Mid-apply *failures* (the process survives): rollback vs roll-forward."""

    def fail_apply_at(self, op_index, exc_factory=TryAgain):
        def hook(ctx):
            if ctx[1] == op_index:
                raise exc_factory("injected apply failure")
        failpoints.install("tx.apply_op", hook)

    def test_failure_before_unlink_rolls_back(self):
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = stage_tx(s)
        self.fail_apply_at(3)  # fail ON the unlink: nothing irreversible ran
        with pytest.raises(TxAborted):
            tx.commit()
        failpoints.clear()
        assert tx.state == "aborted"
        assert observed_state(s) == "none"
        assert s.read_file("/pre") == b"old"
        assert read_head(vol.device) == 0
        s.shutdown()
        assert run_fsck(vol.device).clean

    def test_failure_after_unlink_leaves_log_pending(self):
        vol = make_volume()
        s = vol.session("app")
        populate(s)
        tx = s.transaction()
        tx.unlink("/victim")
        tx.create("/t1")
        self.fail_apply_at(1)  # the unlink already applied: irreversible
        with pytest.raises(TxCommitPending):
            tx.commit()
        failpoints.clear()
        assert tx.state == "pending-replay"
        assert read_head(vol.device) != 0  # sealed log left for recovery
        mounted = Volume.mount(vol.device.durable_image())
        assert [(f.meta["valid"], f.meta["ops"])
                for f in mounted.recovery.by_class(F_TX_TORN)] == [(True, 2)]
        assert mounted.recovery.repairs[F_TX_TORN] == 1
        with mounted.session("check") as c:
            assert not c.exists("/victim")
            assert c.exists("/t1")
        assert run_fsck(mounted.device).clean

    def test_abort_restores_content_from_before_images_after_read_release(self):
        """A tx aborting after dirtying a file that was released after a
        read and re-acquired restores the content the commit found, not
        the post-dirty state the failing apply left behind — from the
        transaction's own before-images, with no kernel rollback."""
        vol = Volume.create(SIZE, config=VolumeConfig(inode_count=64))
        s = vol.session("app")
        s.write_file("/hot", b"clean" * 1024)
        s.release_all()
        fd = s.open("/hot")
        assert s.pread(fd, 5, 0) == b"clean"
        s.close(fd)
        s.release_all()
        kernel = vol.kernel
        rollbacks0 = kernel.stats.rollbacks

        tx = s.transaction()
        tx.pwrite("/hot", b"DIRTY" * 1024, 0)
        tx.create("/marker")
        self.fail_apply_at(1)  # /hot is already dirty when this fails
        with pytest.raises(TxAborted):
            tx.commit()
        failpoints.clear()

        assert kernel.stats.rollbacks == rollbacks0
        assert s.read_file("/hot") == b"clean" * 1024
        assert not s.exists("/marker")
        s.shutdown()
        assert vol.fsck().clean
