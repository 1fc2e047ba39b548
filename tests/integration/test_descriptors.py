"""A descriptor names the file it opened, across releases.

An unpatched release (the artifact's §4.3 path) drops the file's MemInode;
the next data verb on a descriptor rebuilds it from core state.  The
rebuilt MemInode holds the same file — same slot, same generation — so the
descriptor is rebound to it and keeps working.  Only a slot that another
file took since answers ``BadFileDescriptor``.  Every configuration is
covered: the artifact, the enhanced system and each single patch.
"""

import pytest

from repro.errors import BadFileDescriptor
from repro.libfs.libfs import LibFS
from tests.conftest import EVERY_CONFIG, build_fs


@pytest.fixture(params=EVERY_CONFIG)
def fsx(request):
    return build_fs(request.param)


@pytest.mark.parametrize("verb", ["pread", "pwrite", "read", "write"])
def test_a_descriptor_outlives_its_release(fsx, verb):
    _device, kernel, fs = fsx
    fd = fs.creat("/f")
    fs.pwrite(fd, b"abc", 0)
    fs.release_all()
    if verb == "pread":
        assert fs.pread(fd, 3, 0) == b"abc"
    elif verb == "read":
        assert fs.read(fd, 3) == b"abc"
    elif verb == "pwrite":
        assert fs.pwrite(fd, b"X", 1) == 1
    else:
        assert fs.write(fd, b"XY") == 2
    want = {"pwrite": b"aXc", "write": b"XYc"}.get(verb, b"abc")
    assert fs.pread(fd, 3, 0) == want
    # Rebound, not rebuilt on every call: the descriptor holds the
    # MemInode the LibFS indexes now.
    assert fs.fdtable.get(fd).mi is fs._inodes[fs.stat("/f").ino]
    fs.release_all()  # and again, through the rebound descriptor
    assert fs.pread(fd, 3, 0) == want
    fs.close(fd)
    fs.release_all()
    assert fs.read_file("/f") == want
    fs.release_all()
    assert kernel.audit_tree() == []


def test_a_reused_slot_is_not_the_file_opened(fsx):
    _device, kernel, fs = fsx
    other = LibFS(kernel, "app2", uid=fs.uid, config=fs.config)
    fd = fs.creat("/f")
    fs.pwrite(fd, b"old", 0)
    ino = fs.stat("/f").ino
    fs.release_all()
    other.unlink("/f")
    other.release_all()  # the deletion verifies: the slot is free
    other.write_file("/g", b"new!")
    assert other.stat("/g").ino == ino  # the same slot
    other.release_all()
    with pytest.raises(BadFileDescriptor):
        fs.pread(fd, 4, 0)
    with pytest.raises(BadFileDescriptor):
        fs.pwrite(fd, b"X", 0)
    fs.close(fd)
    fs.release_all()
    assert other.read_file("/g") == b"new!"
