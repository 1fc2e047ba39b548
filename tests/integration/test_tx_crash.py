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
from repro.errors import CrashPoint, TryAgain, TxAborted, TxCommitPending
from repro.fsck import F_TX_TORN, TX_CLASSES, fsck_checker, run_fsck
from repro.pm.device import PMDevice
from repro.tx.log import read_head, seal

SIZE = 4 * 1024 * 1024
ENUM_LIMIT = 2048


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
        checker = fsck_checker(classes=TX_CLASSES)
        seen = set()
        images = vol.device.enumerate_crash_images(limit=ENUM_LIMIT)
        assert images, "crash tracking produced no images"
        for image in images:
            mounted = Volume.mount(image)
            # No tx-torn finding may survive recovery...
            assert checker(mounted.device) is None
            assert run_fsck(mounted.device).clean
            # ...and the namespace is all-or-none.
            with mounted.session("check") as c:
                state = observed_state(c)
            assert state in expect, state
            seen.add(state)
        return seen

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
        assert final.recovery.tx_replayed == 4
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
        assert first.recovery.tx_replayed == 4
        assert read_head(dev) == 0
        # Mounting the *recovered* device again replays nothing.
        second = Volume.mount(dev)
        assert second.recovery.tx_replayed == 0
        with second.session("check") as c:
            assert observed_state(c) == "all"

    def test_corrupt_sealed_log_is_discarded(self):
        vol = make_volume()
        with vol.session("app") as s:
            s.write_file("/keep", b"kept")
        dev = PMDevice.from_image(vol.device.durable_image())
        seal(dev, 9_999_999)  # head pointing nowhere
        mounted = Volume.mount(dev)
        assert mounted.recovery.tx_discarded == 1
        assert mounted.recovery.tx_replayed == 0
        assert read_head(dev) == 0
        with mounted.session("check") as c:
            assert c.read_file("/keep") == b"kept"
        assert run_fsck(dev, repair=True).clean

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
        assert mounted.recovery.tx_replayed == 0  # fsck already replayed
        with mounted.session("check") as c:
            assert observed_state(c) == "all"


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
        assert mounted.recovery.tx_replayed == 2
        with mounted.session("check") as c:
            assert not c.exists("/victim")
            assert c.exists("/t1")
        assert run_fsck(mounted.device).clean

    def test_abort_restores_acquisition_snapshot_after_read_release(self):
        """A tx aborting after dirtying a file that was released after a
        read and re-acquired must restore the acquisition's snapshot (the
        last verified state), not the post-dirty state the failing apply
        left behind."""
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

        assert kernel.stats.rollbacks > rollbacks0
        assert s.read_file("/hot") == b"clean" * 1024
        assert not s.exists("/marker")
        s.shutdown()
        assert vol.fsck().clean
