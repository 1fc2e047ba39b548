"""fsck as the arbiter for the six Table-1 bugs.

Each test triggers one paper bug the same way the ``repro.bugs`` modules
do, then runs the whole-volume checker: under unpatched ArckFS the bug's
on-PM fingerprint (or DRAM-vs-PM divergence) must be detected — and, where
the damage is durable, ``repair=True`` must converge back to a provably
clean volume; under ArckFS+ the same interleaving must leave nothing for
fsck to find.
"""

import pytest

from repro.bugs.bug_bucket import colliding_names
from repro.bugs.bug_fence import VICTIM, _crash_at_marker
from repro.bugs.harness import make_fs, race
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.errors import CorruptionDetected, SimulatedBusError, SimulatedSegfault
from repro.fsck import (
    TORN_CLASSES,
    F_AUX_MISMATCH,
    F_DIR_CYCLE,
    F_DUPLICATE_DENTRY,
    F_ORPHAN_INODE,
    F_TORN_DENTRY,
    check_node_ref,
    fsck_checker,
    run_fsck,
)
from repro.pm.crash import explore


# --------------------------------------------------------------------------- #
# §4.1 — cross-directory rename failure → duplicate dentry after rollback
# --------------------------------------------------------------------------- #


def _rename_and_release(config):
    device, _kernel, fs = make_fs(config)
    fs.mkdir("/dir1")
    fs.mkdir("/dir1/dir3")
    fs.close(fs.creat("/dir1/dir3/file1"))
    fs.mkdir("/dir2")
    fs.release_all()
    fs.rename("/dir1/dir3", "/dir2/dir3")
    rejected = False
    for path in ("/dir2", "/dir1"):
        try:
            fs.release_path(path)
        except CorruptionDetected:
            rejected = True
    return device, rejected


def test_41_rollback_leaves_duplicate_dentry_arckfs():
    device, rejected = _rename_and_release(ARCKFS)
    assert rejected  # the legitimate relocation was refused and rolled back
    report = run_fsck(device)
    assert F_DUPLICATE_DENTRY in report.classes(), report.summary()
    repaired = run_fsck(device, repair=True)
    assert repaired.clean and F_DUPLICATE_DENTRY in repaired.repairs


def test_41_clean_under_arckfs_plus():
    device, rejected = _rename_and_release(ARCKFS_PLUS)
    assert not rejected
    assert run_fsck(device).clean


# --------------------------------------------------------------------------- #
# §4.2 — missing fence → torn/dangling dentry in some crash state
# --------------------------------------------------------------------------- #


def test_42_crash_enumeration_finds_torn_state_arckfs():
    [point] = explore(_crash_at_marker(ARCKFS), None,
                      fsck_checker(classes=TORN_CLASSES), budget=16384, first=True)
    assert point.verdicts
    assert any(cls in point.verdicts[0] for cls in TORN_CLASSES)


def test_42_no_torn_state_under_arckfs_plus():
    [point] = explore(_crash_at_marker(ARCKFS_PLUS), None,
                      fsck_checker(TORN_CLASSES), budget=16384, first=True)
    assert point.verdicts == []


@pytest.mark.parametrize("config", [ARCKFS, ARCKFS_PLUS], ids=lambda c: c.name)
def test_42_every_crash_state_is_repairable(config):
    # Even the torn states of the unpatched protocol are *repairable*:
    # fsck truncates the torn suffix and quarantines the half-created
    # inode, so no reachable crash state is beyond recovery.
    [point] = explore(_crash_at_marker(config), None,
                      fsck_checker(repair=True), budget=16384, first=True)
    assert point.verdicts == []


@pytest.mark.parametrize("config", [ARCKFS, ARCKFS_PLUS], ids=lambda c: c.name)
def test_42_explorer_alone_finds_the_missing_fence(config):
    """No failpoint: a plain creat explored at every fence.  ArckFS tears
    the dentry just before its final fence and nowhere else; ArckFS+'s
    extra fence leaves no torn state at any point."""
    device, _kernel, fs = make_fs(config)
    points = explore(device, lambda: fs.creat(VICTIM),
                     fsck_checker(classes=TORN_CLASSES), budget=16)
    torn = [p.fence for p in points if p.verdicts]
    if config is ARCKFS:
        assert len(points) == 6 and torn == [5], torn
        assert any(F_TORN_DENTRY in v for v in points[4].verdicts)
    else:
        assert len(points) == 7 and torn == [], torn


# --------------------------------------------------------------------------- #
# §4.3 — release unmaps under a mid-creat writer → orphan inode record
# --------------------------------------------------------------------------- #


def _release_under_creat(config):
    device, _kernel, fs = make_fs(config)
    fs.mkdir("/dir")
    fs.commit_path("/")
    fs.commit_path("/dir")
    exc1, exc2 = race(
        first=lambda: fs.creat("/dir/x"),
        second=lambda: fs.release_path("/dir"),
        parkpoint="creat.pre_core_append",
    )
    return device, exc1, exc2


def test_43_release_under_creat_orphans_inode_arckfs():
    device, exc1, _exc2 = _release_under_creat(ARCKFS)
    assert isinstance(exc1, SimulatedBusError)  # the writer "crashed"
    report = run_fsck(device)
    # The child's inode record persisted before the parent vanished under
    # the writer; no dentry ever did — a lost creat.
    assert F_ORPHAN_INODE in report.classes(), report.summary()
    repaired = run_fsck(device, repair=True)
    assert repaired.clean and F_ORPHAN_INODE in repaired.repairs


def test_43_locked_release_waits_under_arckfs_plus():
    device, exc1, exc2 = _release_under_creat(ARCKFS_PLUS)
    assert exc1 is None and exc2 is None
    assert run_fsck(device).clean


# --------------------------------------------------------------------------- #
# §4.4 — aux updated before core append → DRAM/PM divergence
# --------------------------------------------------------------------------- #


def _creat_vs_unlink(config):
    device, _kernel, fs = make_fs(config)
    fs.mkdir("/dir")
    exc1, exc2 = race(
        first=lambda: fs.creat("/dir/x"),
        second=lambda: fs.unlink("/dir/x"),
        parkpoint="creat.pre_core_append",
    )
    return device, fs, exc1, exc2


def test_44_aux_core_divergence_detected_arckfs():
    device, fs, _exc1, exc2 = _creat_vs_unlink(ARCKFS)
    assert isinstance(exc2, SimulatedSegfault)
    report = run_fsck(device, libfs=fs)
    aux = report.by_class(F_AUX_MISMATCH)
    # The unlink removed the aux entry before faulting; the resumed creat
    # still appended the committed dentry to PM — core-only divergence.
    assert aux, report.summary()
    assert all(not f.repairable for f in aux)
    # The durable volume itself is consistent; only DRAM diverged.
    assert run_fsck(device).clean


def test_44_extended_bucket_lock_keeps_states_agreeing():
    device, fs, exc1, exc2 = _creat_vs_unlink(ARCKFS_PLUS)
    assert exc1 is None and not isinstance(exc2, SimulatedSegfault)
    assert run_fsck(device, libfs=fs).clean


# --------------------------------------------------------------------------- #
# §4.5 — bucket traversal use-after-free → reader-held hazard, volume clean
# --------------------------------------------------------------------------- #


def _reader_uaf(config):
    device, _kernel, fs = make_fs(config)
    fs.mkdir("/dir")
    target, victim = colliding_names(fs, "/dir")
    fs.close(fs.creat(f"/dir/{target}"))
    fs.close(fs.creat(f"/dir/{victim}"))
    node = fs._resolve(("dir",), need_dir=True).dir.lookup(victim.encode())
    exc1, _exc2 = race(
        first=lambda: fs.stat(f"/dir/{target}"),
        second=lambda: fs.unlink(f"/dir/{victim}"),
        parkpoint="dir.bucket_traverse",
        predicate=lambda n: getattr(n, "name", None) == victim.encode(),
    )
    return device, fs, node, exc1


def test_45_reader_held_node_hazard_arckfs():
    device, _fs, node, exc1 = _reader_uaf(ARCKFS)
    assert isinstance(exc1, SimulatedSegfault)
    hazard = check_node_ref(node)
    assert hazard and hazard[0].cls == F_AUX_MISMATCH
    assert not hazard[0].repairable
    # Availability bug only: durable core state never had a problem.
    assert run_fsck(device).clean


def test_45_rcu_grace_period_protects_reader_arckfs_plus():
    device, fs, node, exc1 = _reader_uaf(ARCKFS_PLUS)
    assert exc1 is None
    # The free is deferred, so the reader-held reference stays sound...
    assert check_node_ref(node) == []
    # ...until the grace period expires, with no reader left to care.
    fs.quiesce()
    assert run_fsck(device).clean


# --------------------------------------------------------------------------- #
# §4.6 — concurrent cross renames → directory cycle
# --------------------------------------------------------------------------- #


def _cross_renames(config):
    device, _kernel, fs = make_fs(config)
    for path in ("/a", "/a/b", "/c", "/c/d"):
        fs.mkdir(path)
    race(
        first=lambda: fs.rename("/c", "/a/b/c2"),
        second=lambda: fs.rename("/a", "/c/d/a2"),
        parkpoint="rename.pre_apply",
    )
    return device


def test_46_concurrent_renames_create_cycle_arckfs():
    device = _cross_renames(ARCKFS)
    report = run_fsck(device)
    assert F_DIR_CYCLE in report.classes(), report.summary()
    # Repair cuts the cycle, which exposes the detached subtree as an
    # orphan root to quarantine — multi-pass convergence.
    repaired = run_fsck(device, repair=True)
    assert repaired.clean, repaired.summary()
    assert F_DIR_CYCLE in repaired.repairs


def test_46_rename_lease_prevents_cycle_arckfs_plus():
    device = _cross_renames(ARCKFS_PLUS)
    assert run_fsck(device).clean
