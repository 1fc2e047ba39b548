"""What each metadata op, data op and commit pays in fences, and the audit
that says each one is needed.

An unlink or rmdir fences its tombstone and leaves the inode-record free and
the page free's bit clears to the next fence; a rename fences its new dentry
and leaves the old one's tombstone to the next fence; an append's data rides
its slot fence; a commit's log rides its seal's fence (DESIGN §5, "Fences
per metadata op").
"""

from repro.api import Volume, VolumeConfig
from repro.experiments import EXPERIMENTS
from repro.pm.layout import PAGE_SIZE


def warm_session():
    """An untracked volume whose ``/d`` has a log page, and a session that
    has already paid for its page pool."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
    s = vol.session("p", uid=0)
    s.mkdir("/d")
    s.mkdir("/e")
    for d in ("/d", "/e"):
        s.close(s.creat(f"{d}/warm"))
        s.unlink(f"{d}/warm")
    return vol, s


def fences(vol, op):
    f0 = vol.device.stats.fences
    op()
    return vol.device.stats.fences - f0


def test_fences_per_metadata_op_on_a_warm_volume():
    vol, s = warm_session()
    got = {
        "creat": fences(vol, lambda: s.close(s.creat("/d/f"))),
        "unlink": fences(vol, lambda: s.unlink("/d/f")),
        "mkdir": fences(vol, lambda: s.mkdir("/d/m")),
        "rmdir": fences(vol, lambda: s.rmdir("/d/m")),
    }
    s.close(s.creat("/d/r"))
    got["rename"] = fences(vol, lambda: s.rename("/d/r", "/d/q"))
    got["rename-file-x"] = fences(vol, lambda: s.rename("/d/q", "/e/q"))
    s.mkdir("/d/sub")
    got["rename-dir-x"] = fences(vol, lambda: s.rename("/d/sub", "/e/sub"))
    assert got == {"creat": 2, "unlink": 1, "mkdir": 2, "rmdir": 1,
                   "rename": 2, "rename-file-x": 2, "rename-dir-x": 2}


def test_fences_per_data_op_and_commit_on_a_warm_volume():
    """Append 2 (slots with the data, then the size), truncate 2 (the size,
    then the unmap; the bit clears ride the next fence), a multi-page
    unlink 1, and a 3 x 4 KiB overwrite commit 3 (seal with the log, apply,
    checkpoint)."""
    vol, s = warm_session()
    for i in range(3):
        s.write_file(f"/d/f{i}", b"a" * 2 * PAGE_SIZE)

    def append():
        fd = s.open("/d/f0")
        s.pwrite(fd, b"b" * PAGE_SIZE, 2 * PAGE_SIZE)
        s.close(fd)

    def commit():
        with s.transaction() as tx:
            for i in range(3):
                tx.pwrite(f"/d/f{i}", b"c" * PAGE_SIZE, PAGE_SIZE)

    got = {"commit": fences(vol, commit),
           "append": fences(vol, append),
           "truncate": fences(vol, lambda: s.truncate("/d/f0", PAGE_SIZE)),
           "unlink": fences(vol, lambda: s.unlink("/d/f1"))}
    assert got == {"commit": 3, "append": 2, "truncate": 2, "unlink": 1}
    assert s.read_file("/d/f2") == b"a" * PAGE_SIZE + b"c" * PAGE_SIZE


def test_tombstone_and_record_free_take_no_fence():
    vol, s = warm_session()
    s.close(s.creat("/d/f"))
    core = vol.kernel.core
    ino = s.stat("/d/f").ino
    _d, loc = core.live_dentries_with_loc(core.read_inode(s.stat("/d").ino))[b"f"]
    assert fences(vol, lambda: core.tombstone(loc)) == 0
    assert fences(vol, lambda: core.free_inode(ino)) == 0


def test_fence_audit_holds():
    """The ``fences`` experiment: the §4.2 control is flagged, each op
    issues its count, and every fence left is one a crash needs: the
    truncate's unmap fence by a raw image, the checkpoint's by the unlink
    after the commit."""
    exp = EXPERIMENTS["fences"]
    data = exp.run()
    assert exp.check(data) == []
    creat = data["creat"]
    assert "§4.2" in creat["lines"][0]
    assert creat["skipped"][0] == "before fence 2: fsck dangling-dentry"
    rendered = exp.render(data)
    assert "fences per creat/unlink/mkdir/rmdir/rename: 2/1/2/1/2" in rendered
    assert "fences per pwrite/append/truncate: 1/2/2" in rendered
    assert "fences per tx3/tx3+unlink: 3/4" in rendered
    assert data["truncate"]["skipped"][1] == "at return: raw fsck page-unallocated"
    assert data["tx3+unlink"]["skipped"][2].startswith("before fence 4: file /d/a")
