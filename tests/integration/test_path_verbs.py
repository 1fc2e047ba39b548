"""The whole-file verbs: ``LibFS.read_file`` and ``write_file``.

Both resolve the path once and run the descriptor verbs' bodies
(``_pread``/``_pwrite``) on the inode found: no descriptor is installed or
counted, errors are the path's, and a walk that went stale before the data
moved is redone rather than reported as a dead descriptor.  Every
configuration is covered: the artifact, the enhanced system and each
single patch.
"""

import pytest

from repro.errors import IsADir, NoEntry, NotADir
from repro.libfs.libfs import LibFS
from tests.conftest import EVERY_CONFIG, build_fs


@pytest.fixture(params=EVERY_CONFIG)
def fsx(request):
    """conftest's ``fs`` is this triple's LibFS."""
    return build_fs(request.param)


def test_typed_errors(fs):
    fs.mkdir("/d")
    fs.write_file("/f", b"x")
    for verb in (fs.read_file, lambda p: fs.write_file(p, b"y")):
        with pytest.raises(IsADir):
            verb("/d")
        with pytest.raises(IsADir):
            verb("/")
        with pytest.raises(NotADir):
            verb("/f/g")
        with pytest.raises(NoEntry):
            verb("/nodir/g")
    with pytest.raises(NoEntry):
        fs.read_file("/d/missing")


def test_write_file_creates_and_never_truncates(fs):
    fs.mkdir("/d")
    fs.write_file("/d/f", b"0123456789")
    assert fs.read_file("/d/f") == b"0123456789"
    fs.write_file("/d/f", b"ab")
    assert fs.read_file("/d/f") == b"ab23456789"
    assert fs.stat("/d/f").size == 10
    fs.write_file("/d/e", b"")
    assert fs.read_file("/d/e") == b""
    big = bytes(range(256)) * 40  # three pages, the last partial
    fs.write_file("/d/f", big)
    assert fs.read_file("/d/f") == big


def test_no_descriptor_is_installed_or_counted(fs):
    opens = fs.stats.opens
    fs.write_file("/f", b"abc")
    fs.write_file("/f", b"d")
    assert fs.read_file("/f") == b"dbc"
    assert fs.fdtable.open_count() == 0
    assert fs.stats.opens == opens
    assert fs.stats.creates == 1 and fs.stats.writes == 2 and fs.stats.reads == 1


@pytest.mark.parametrize("same_name", [True, False], ids=["recreated", "gone"])
@pytest.mark.parametrize("verb", ["read_file", "write_file"])
def test_a_slot_reused_after_the_walk_is_not_a_dead_descriptor(
        fsx, monkeypatch, verb, same_name):
    """Another session unlinks the name and creates into its inode slot
    after the verb resolved it: the verb walks again and answers as if it
    came after the other session's ops — the new file's bytes or NoEntry
    for a read; for a write, the name's file now, created if gone."""
    _device, kernel, fs = fsx
    other = LibFS(kernel, "app2", uid=fs.uid, config=fs.config)
    fs.write_file("/f", b"old")
    assert fs.read_file("/f") == b"old"  # walk, image and mapping all warm
    ino = fs.stat("/f").ino
    fs.release_all()
    new_name = "/f" if same_name else "/g"
    resolve = fs._resolve

    def resolve_then_interfere(comps, write=False):
        mi = resolve(comps, write)
        monkeypatch.setattr(fs, "_resolve", resolve)  # once
        fs.release_all()  # a sibling thread of this session's, say
        other.unlink("/f")
        other.release_all()  # the deletion verifies: the slot is free
        other.write_file(new_name, b"new!")
        assert other.stat(new_name).ino == ino  # the same slot
        other.release_all()
        return mi

    monkeypatch.setattr(fs, "_resolve", resolve_then_interfere)
    if verb == "write_file":
        fs.write_file("/f", b"W")
        assert fs.read_file("/f") == (b"Wew!" if same_name else b"W")
    elif same_name:
        assert fs.read_file("/f") == b"new!"
    else:
        with pytest.raises(NoEntry):
            fs.read_file("/f")
    assert fs.fdtable.open_count() == 0
