"""Differential tests for the three ownership indices.

The kernel's ``inode_pages`` (ino -> pages), its free-slot heap and the
LibFS's ``_mapped`` index each replaced a whole-table scan.  The scans
live on *here* as oracles: after every step of a seeded random sequence
the index must say exactly what the scan would have said.
"""

import random

import pytest

from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.errors import CorruptionDetected, FSError, NoSpace, TxAborted
from tests.integration.test_attack_scenario import corrupt_dir

DIRS = ["/d0", "/d1", "/d0/sub", "/d1/sub"]
NAMES = ["a", "b", "c", "d"]
STEPS = 120


# --------------------------------------------------------------------- #
# Oracles: the scans the indices replaced
# --------------------------------------------------------------------- #

def scan_inode_pages(kernel):
    inverted = {}
    for page_no, ino in kernel.page_owner.items():
        inverted.setdefault(ino, set()).add(page_no)
    return inverted


def scan_release_order(fs):
    owned = [mi for mi in fs._inodes.values() if mi.attached]
    return [mi.ino for mi in sorted(owned, key=fs._depth)]


def check_kernel(kernel, app_id):
    assert kernel.inode_pages == scan_inode_pages(kernel)
    assert all(kernel.inode_pages.values()), "empty page set left behind"
    assert sorted(kernel._free_heap) == sorted(kernel.free_inodes)
    if kernel.free_inodes:
        lowest = min(kernel.free_inodes)
        ino, _gen = kernel.alloc_inode(app_id)
        kernel.abort_inode(app_id, ino)
        assert ino == lowest
        assert sorted(kernel._free_heap) == sorted(kernel.free_inodes)


def checked_release_all(fs):
    """``release_all`` must release what the scan would, in its order."""
    expected = scan_release_order(fs)
    released = []
    real = fs.release_ino
    fs.release_ino = lambda ino: (released.append(ino), real(ino))[1]
    try:
        fs.release_all()
    finally:
        del fs.release_ino
    assert released == expected
    assert not any(mi.attached for mi in fs._inodes.values())
    assert not fs._mapped


# --------------------------------------------------------------------- #
# The random walk
# --------------------------------------------------------------------- #

def forge_dir_page(fs, path):
    """Scribble over a directory's log through the mapping (the §3.1
    attacker's move); the failed release runs ``RollbackPolicy``."""
    checked_release_all(fs)  # snapshot == current state: rollback is a no-op
    ino = fs.stat(path).ino
    mi = fs._attach(ino, write=True)
    if not mi.cs.dir_pages(mi.record):
        return  # never held an entry: no log page to forge
    corrupt_dir(fs, path)
    with pytest.raises(CorruptionDetected):
        fs.release_ino(ino)


def fail_second_record(ctx):
    if ctx[1] == 1:
        raise NoSpace("injected at apply")


def step(rng, vol, s):
    """One random operation; returns the (possibly remounted) pair."""
    fs = s.fs
    kind = rng.choice([
        "creat", "creat", "write", "write", "truncate", "unlink", "rename",
        "rename_dir", "mkdir", "rmdir", "tx_abort", "forge", "revoke",
        "release_all", "release_all", "remount",
    ])
    d, n = rng.choice(DIRS), rng.choice(NAMES)
    path = f"{d}/{n}"
    try:
        if kind == "creat":
            fs.close(fs.creat(path))
        elif kind == "write":
            fd = fs.open(path, create=rng.random() < 0.5)
            fs.pwrite(fd, bytes([rng.randrange(256)]) * rng.randrange(1, 20000),
                      rng.randrange(0, 30000))
            fs.close(fd)
        elif kind == "truncate":
            # Shrink only: extending past the mapped pages fails the
            # verifier's size check (at the parent commit too).
            fs.truncate(path, rng.randrange(0, fs.stat(path).size + 1))
        elif kind == "unlink":
            fs.unlink(path)
        elif kind == "rename":
            fs.rename(path, f"{rng.choice(DIRS)}/{rng.choice(NAMES)}")
        elif kind == "rename_dir":
            fs.rename(f"{d}/x", f"{rng.choice(DIRS)}/x")
        elif kind == "mkdir":
            fs.mkdir(f"{d}/x")
        elif kind == "rmdir":
            fs.rmdir(f"{d}/x")
        elif kind == "tx_abort":
            # The apply maps pages for the write, then fails: the undo
            # truncates them away and writes the old bytes back.
            tx = s.transaction()
            tx.pwrite(path, b"doomed" * 3000, 0)
            tx.truncate(path, 1)
            failpoints.install("tx.apply_op", fail_second_record)
            try:
                with pytest.raises(TxAborted):
                    tx.commit()
            finally:
                failpoints.remove("tx.apply_op")
        elif kind == "forge":
            forge_dir_page(fs, d)
        elif kind == "revoke":
            # Registered inodes only: revoking a never-verified creation
            # verifies it out of Rule (1) order, which strands its children.
            attached = [mi.ino for mi in fs._inodes.values() if mi.attached
                        and not mi.borrowed
                        and mi.ino in vol.kernel.shadow]
            if attached:
                vol.kernel.revoke(rng.choice(attached))
        elif kind == "release_all":
            checked_release_all(fs)
        elif kind == "remount":
            checked_release_all(fs)
            fs.shutdown()
            vol = Volume.mount(vol.device.durable_image())  # through _recover
            s = vol.session("walker", uid=0)
    except FSError:
        pass
    return vol, s


@pytest.mark.parametrize("devices", [1, 4], ids=["flat", "striped4"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indices_match_scans_after_every_step(seed, devices):
    rng = random.Random(seed)
    vol = Volume.create(16 << 20, VolumeConfig(inode_count=128, devices=devices))
    s = vol.session("walker", uid=0)
    for path in DIRS:
        s.fs.makedirs(path)
    checked_release_all(s.fs)
    check_kernel(vol.kernel, "walker")
    for _ in range(STEPS):
        vol, s = step(rng, vol, s)
        check_kernel(vol.kernel, "walker")
    checked_release_all(s.fs)
    check_kernel(vol.kernel, "walker")
    assert vol.fsck().clean


# --------------------------------------------------------------------- #
# The setter pair, directly
# --------------------------------------------------------------------- #

def test_page_moves_between_owners():
    kernel = Volume.create(8 << 20, VolumeConfig(inode_count=64)).kernel
    kernel.set_page_owner(900, 5)
    kernel.set_page_owner(901, 5)
    kernel.set_page_owner(900, 7)  # moves: 5 must lose it
    assert kernel.page_owner[900] == 7
    assert kernel.inode_pages[5] == {901}
    assert kernel.inode_pages[7] == {900}
    kernel.set_page_owner(900, 7)  # idempotent
    kernel.clear_page_owner(901)
    assert 5 not in kernel.inode_pages  # no empty sets linger
    kernel.clear_page_owner(901)  # absent page: no-op
    assert kernel.inode_pages == scan_inode_pages(kernel)


def test_page_owner_is_read_only():
    kernel = Volume.create(8 << 20, VolumeConfig(inode_count=64)).kernel
    with pytest.raises(TypeError):
        kernel.page_owner[900] = 5
    with pytest.raises(TypeError):
        del kernel.page_owner[900]


def test_freed_slot_is_not_queued_twice():
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
    kernel = vol.kernel
    vol.session("a")
    ino, _ = kernel.alloc_inode("a")
    kernel.abort_inode("a", ino)
    kernel._free_slot(ino)  # already free
    assert sorted(kernel._free_heap) == sorted(kernel.free_inodes)
    assert kernel.alloc_inode("a")[0] == ino
