"""Release costs what the request touched, not what the volume holds.

No clocks: the guards count evaluations, or make a whole-table scan raise.
Each of them fails at the commit before the ownership indices existed.
"""

import pathlib
import sys
import threading
from types import MappingProxyType

import pytest

import repro
from repro.api import Volume, VolumeConfig
from repro.errors import CorruptionDetected
from repro.libfs.inode import MemInode
from tests.integration.test_attack_scenario import corrupt_dir


def _no_scan(*_args, **_kwargs):
    raise AssertionError("whole-table scan on the release path")


class NoScanDict(dict):
    __iter__ = keys = values = items = _no_scan


class NoScanSet(set):
    __iter__ = _no_scan


def test_release_all_visits_only_attached_inodes(monkeypatch):
    vol = Volume.create(64 << 20, VolumeConfig(inode_count=4096))
    fs = vol.session("app", uid=0).fs
    fs.mkdir("/d")
    for i in range(2000):
        fs.close(fs.creat(f"/d/f{i}"))
    fs.release_all()
    assert len(fs._inodes) > 2000

    fs.close(fs.creat("/d/extra"))  # attaches /d and the new file
    fs.truncate("/d/f7", 0)         # attaches f7
    attached = [mi for mi in fs._inodes.values() if mi.attached]
    assert len(attached) == 3

    evaluations = []
    real = MemInode.attached
    monkeypatch.setattr(
        MemInode, "attached",
        property(lambda mi: (evaluations.append(mi.ino), real.fget(mi))[1]))
    fs.release_all()
    monkeypatch.undo()

    assert not any(mi.attached for mi in attached)
    assert len(evaluations) <= 6 * len(attached), len(evaluations)


def test_release_path_never_scans_a_kernel_table():
    vol = Volume.create(16 << 20, VolumeConfig(inode_count=256))
    kernel = vol.kernel
    fs = vol.session("app", uid=0).fs
    fs.mkdir("/d")
    fs.write_file("/d/keep", b"k" * 9000)
    fs.write_file("/d/gone", b"g" * 9000)
    fs.release_all()

    kernel._page_owner = NoScanDict(kernel.page_owner)
    kernel.page_owner = MappingProxyType(kernel._page_owner)
    kernel.free_inodes = NoScanSet(kernel.free_inodes)

    fs.write_file("/d/new", b"n" * 20000)   # alloc_inode + _apply (grow)
    fs.truncate("/d/keep", 100)             # _apply (shrink)
    fs.unlink("/d/gone")                    # _drop_shadow
    fs.release_all()
    assert fs.read_file("/d/new") == b"n" * 20000
    fs.release_all()

    keep = fs.stat("/d/keep").ino
    assert kernel.inode_pages[keep] == {
        p for p, ino in dict.items(kernel._page_owner) if ino == keep}


def test_the_three_scans_are_gone_from_the_source():
    scans = ("page_owner.items()", "min(self.free_inodes)", "_inodes.values() if")
    root = pathlib.Path(repro.__file__).parent
    hits = [f"{path.relative_to(root)}: {scan}"
            for path in sorted(root.rglob("*.py"))
            for scan in scans if scan in path.read_text()]
    assert hits == []


def test_failed_release_still_drains_pools_and_drops_its_index_entry():
    vol = Volume.create(16 << 20, VolumeConfig(inode_count=256))
    fs = vol.session("app", uid=0).fs
    fs.mkdir("/x")
    fs.close(fs.creat("/x/child"))
    fs.close(fs.creat("/y"))
    fs.release_all()

    # Two attached inodes: /x (about to be forged) and /y (honest, and its
    # write leaves refill pages reserved in this thread's pool).
    x_ino, y_ino = fs.stat("/x").ino, fs.stat("/y").ino
    fd = fs.open("/y")
    fs.pwrite(fd, b"y" * 5000, 0)
    fs.close(fd)
    assert fs.alloc.pooled_pages()
    corrupt_dir(fs, "/x")

    with pytest.raises(CorruptionDetected):
        fs.release_all()

    assert fs.alloc.pooled_pages() == set()
    assert x_ino not in fs._inodes and x_ino not in fs._mapped
    # /y was never reached; it is still attached and still indexed, so the
    # app's next request hands it back.
    assert fs._mapped[y_ino].attached
    fs.release_all()
    assert not fs._mapped
    assert fs.read_file("/y") == b"y" * 5000
    assert fs.readdir("/x") == ["child"]  # rolled back intact


def test_index_survives_release_all_racing_attaches():
    """Four writers re-attach their files while one thread keeps calling
    ``release_all`` (which prunes the index): an attach that lost its index
    entry to a concurrent prune would never be released again."""
    vol = Volume.create(32 << 20, VolumeConfig(inode_count=512))
    fs = vol.session("app", uid=0).fs
    for t in range(4):
        fs.mkdir(f"/t{t}")
    fs.release_all()
    stop = threading.Event()
    errors = []

    def writer(tid):
        for i in range(60):
            fs.write_file(f"/t{tid}/f{i % 6}", bytes([tid]) * 700)

    def releaser(_tid):
        while not stop.is_set():
            fs.release_all()

    def wrap(fn, tid):
        try:
            fn(tid)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writers = [threading.Thread(target=wrap, args=(writer, t)) for t in range(4)]
    rel = threading.Thread(target=wrap, args=(releaser, 9))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers + [rel]:
            t.start()
        for t in writers:
            t.join(120)
        stop.set()
        rel.join(120)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(t.is_alive() for t in writers + [rel])
    assert not errors, errors

    with fs._inodes_lock:
        for ino, mi in fs._inodes.items():
            if mi.attached:
                assert fs._mapped.get(ino) is mi, f"inode {ino} attached, unindexed"
    fs.release_all()
    assert not any(mi.attached for mi in fs._inodes.values())
    assert not vol.kernel.acquisitions
    assert vol.fsck().clean
