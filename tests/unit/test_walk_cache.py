"""A path is resolved once: one parse per op, a remembered walk — to a
file or a directory — that answers only while every inode on it provably
may, buckets born on first insert.

The ways a remembered walk goes stale each get a reproducer — another
session moving, removing or writing an ancestor or the named file itself
(the kernel's per-inode version says so), this LibFS's own unlink or
rename (dropped where the dentry leaves), and its own rename overlapping a
walk in another thread (the walk sequence says so).  Each must resolve to
the current inode or to ``NoEntry``, never to a stale one.  The costs the
cache is there to cut are counted, not timed.
"""

import threading

import pytest

from repro.bugs.harness import race
from repro.concurrency.rcu import RCU
from repro.core.config import ARCKFS_PLUS
from repro.errors import Exists, IsADir, NoEntry, NotADir, NotEmpty
from repro.libfs import paths
from repro.libfs.hashtable import DirHashTable, NodeFreelist
from repro.libfs.libfs import LibFS
from repro.tx.log import TX_PWRITE, TxRecord
from repro.tx.recovery import apply_records
from tests.conftest import build_fs


def second_app(kernel, app_id="app2"):
    return LibFS(kernel, app_id, uid=1000, config=kernel.config)


def current(fs, path):
    """The MemInode ``path`` resolves to, checked to be the one ``fs``
    holds for that inode now."""
    mi = fs._resolve(paths.parse(path))
    assert fs._inodes[mi.ino] is mi
    return mi


class TestStaleness:
    def test_ancestor_renamed_by_another_session(self):
        """B remembers /a/b; A moves it to /c/b; B then re-reads /a by
        another path, which rebuilds /a *in the MemInode the walk holds* —
        every directory of the old chain is current again, the chain is
        not."""
        _dev, kernel, a = build_fs()
        b = second_app(kernel)
        a.makedirs("/a/b")
        a.mkdir("/c")
        a.write_file("/a/b/f", b"under the old name")
        a.release_all()
        assert b.read_file("/a/b/f") == b"under the old name"
        assert ("a", "b") in b._walks
        b.release_all()
        a.rename("/a/b", "/c/b")
        a.release_all()
        assert b.readdir("/a") == []
        with pytest.raises(NoEntry):
            b.read_file("/a/b/f")
        assert b.read_file("/c/b/f") == b"under the old name"

    def test_ancestor_removed_and_remade_by_another_session(self):
        _dev, kernel, a = build_fs()
        b = second_app(kernel)
        a.makedirs("/a/b")
        a.write_file("/a/b/f", b"old bytes")
        a.release_all()
        assert b.read_file("/a/b/f") == b"old bytes"
        b.release_all()
        a.unlink("/a/b/f")
        a.release_all()  # the kernel learns /a/b is empty at its verification
        a.rmdir("/a/b")
        a.release_all()
        with pytest.raises(NoEntry):
            b.read_file("/a/b/f")
        b.release_all()
        a.mkdir("/a/b")
        a.write_file("/a/b/f", b"new bytes")
        a.release_all()
        assert b.read_file("/a/b/f") == b"new bytes"

    def test_walk_overlapping_an_own_directory_rename_is_not_remembered(self):
        """One LibFS, two threads: the resolver has read ``b`` out of /a
        when the rename moves it.  Its answer may stand (it ran first);
        the pre-move chain may not be what the next resolve is told."""
        _dev, kernel, setup = build_fs()
        setup.makedirs("/a/b")
        setup.mkdir("/c")
        setup.write_file("/a/b/f", b"x")
        setup.release_all()
        fs = second_app(kernel)  # has walked nothing yet
        exc_stat, exc_rename = race(
            first=lambda: fs.stat("/a/b/f"),
            second=lambda: fs.rename("/a/b", "/c/b"),
            parkpoint="dir.bucket_traverse",
            predicate=lambda node: node.name == b"b",
        )
        assert exc_stat is None and exc_rename is None
        assert ("a", "b") not in fs._walks
        with pytest.raises(NoEntry):
            fs.stat("/a/b/f")
        assert fs.stat("/c/b/f").size == 1

    def test_walk_overlapping_an_own_file_rename_is_not_remembered(self):
        """As above, for a walk to the file itself: the resolver has read
        ``f`` out of /a when the rename moves it."""
        _dev, kernel, setup = build_fs()
        setup.mkdir("/a")
        setup.write_file("/a/f", b"x")
        setup.release_all()
        fs = second_app(kernel)
        fs.stat("/a")  # remembers /a, not /a/f
        exc_stat, exc_rename = race(
            first=lambda: fs.stat("/a/f"),
            second=lambda: fs.rename("/a/f", "/a/g"),
            parkpoint="dir.bucket_traverse",
            predicate=lambda node: node.name == b"f",
        )
        assert exc_stat is None and exc_rename is None
        assert ("a", "f") not in fs._walks
        with pytest.raises(NoEntry):
            fs.stat("/a/f")
        assert current(fs, "/a/g").size == 1

    def test_walk_overlapping_an_own_unlink_is_not_remembered(self):
        """The resolver has read ``f`` out of /a when the unlink removes it
        and frees the inode: what it attaches next must not be remembered
        under the name."""
        _dev, kernel, setup = build_fs()
        setup.mkdir("/a")
        setup.write_file("/a/f", b"x")
        setup.release_all()
        fs = second_app(kernel)
        fs.stat("/a")
        _exc_stat, exc_unlink = race(
            first=lambda: fs.stat("/a/f"),
            second=lambda: fs.unlink("/a/f"),
            parkpoint="dir.bucket_traverse",
            predicate=lambda node: node.name == b"f",
        )
        assert exc_unlink is None
        assert ("a", "f") not in fs._walks
        with pytest.raises(NoEntry):
            fs.stat("/a/f")

    def test_a_remembered_walk_stops_answering_when_an_own_unlink_removes_the_name(self):
        """The unlink has taken ``f`` out of /a and not yet freed the inode
        when another thread of the same LibFS resolves the name: the walk
        it remembered must not hand it the inode being freed."""
        _dev, kernel, setup = build_fs()
        setup.mkdir("/a")
        setup.write_file("/a/f", b"x")
        setup.release_all()
        fs = second_app(kernel)
        fs.stat("/a/f")
        assert ("a", "f") in fs._walks
        exc_unlink, exc_stat = race(
            first=lambda: fs.unlink("/a/f"),
            second=lambda: fs.stat("/a/f"),
            parkpoint="dir.write_mid",
            predicate=lambda path: path == "/a/f",
        )
        assert exc_unlink is None and isinstance(exc_stat, NoEntry)

    def test_a_write_by_path_racing_an_own_unlink_lands_in_a_new_file(self):
        """As above, for a transaction record's write by path (its replay
        here): a walk that still answered would put the bytes in the file
        being freed, and they would be lost."""
        _dev, kernel, setup = build_fs()
        setup.mkdir("/a")
        setup.write_file("/a/f", b"x")
        setup.release_all()
        fs = second_app(kernel)
        fs.stat("/a/f")
        exc_unlink, exc_write = race(
            first=lambda: fs.unlink("/a/f"),
            second=lambda: apply_records(fs, [TxRecord(TX_PWRITE, "/a/f", 0,
                                                       b"kept")]),
            parkpoint="dir.write_mid",
            predicate=lambda path: path == "/a/f",
        )
        assert exc_unlink is None and exc_write is None
        assert fs.read_file("/a/f") == b"kept"
        assert current(fs, "/a/f").size == 4

    def test_own_unlink_and_recreate(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"first")
        old = current(fs, "/d/f")
        assert fs._walks[("d", "f")][-1][0] is old
        fs.unlink("/d/f")
        assert ("d", "f") not in fs._walks
        with pytest.raises(NoEntry):
            fs.stat("/d/f")
        fs.write_file("/d/f", b"second!")
        assert current(fs, "/d/f") is not old
        assert fs.stat("/d/f").size == 7 and fs.read_file("/d/f") == b"second!"

    def test_own_file_rename_away_and_back(self, fs):
        """Every member of the old name's walk stays owned and current
        across a file rename: only the rename itself can drop it."""
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        ino = current(fs, "/d/f").ino
        fs.rename("/d/f", "/d/g")
        assert ("d", "f") not in fs._walks
        with pytest.raises(NoEntry):
            fs.stat("/d/f")
        assert current(fs, "/d/g").ino == ino
        fs.rename("/d/g", "/d/f")
        with pytest.raises(NoEntry):
            fs.stat("/d/g")
        assert current(fs, "/d/f").ino == ino
        assert fs.read_file("/d/f") == b"x"

    def test_file_unlinked_recreated_and_renamed_by_another_session(self):
        _dev, kernel, a = build_fs()
        b = second_app(kernel)
        a.mkdir("/d")
        a.write_file("/d/f", b"one")
        a.release_all()
        first = current(b, "/d/f")
        assert ("d", "f") in b._walks
        b.release_all()
        a.unlink("/d/f")
        a.release_all()
        with pytest.raises(NoEntry):
            b.stat("/d/f")
        b.release_all()
        a.write_file("/d/f", b"two!")
        a.release_all()
        assert b.read_file("/d/f") == b"two!"
        second = current(b, "/d/f")
        assert second.ino != first.ino or second.gen != first.gen
        b.release_all()
        a.rename("/d/f", "/d/g")
        a.release_all()
        with pytest.raises(NoEntry):
            b.stat("/d/f")
        assert b.read_file("/d/g") == b"two!"

    def test_file_written_by_another_session(self):
        """The directories on B's walk are untouched; the file's own
        version moved."""
        _dev, kernel, a = build_fs()
        b = second_app(kernel)
        a.mkdir("/d")
        a.write_file("/d/f", b"short")
        a.release_all()
        assert b.stat("/d/f").size == 5
        a.write_file("/d/f", b"a good deal longer")
        a.release_all()
        assert b.stat("/d/f").size == 18
        assert b.read_file("/d/f") == b"a good deal longer"

    def test_walks_stay_bounded_by_the_inodes_kept(self):
        """Another session reuses an inode slot under a new name each
        round: the walk to the old name goes with the MemInode it ends at."""
        _dev, kernel, a = build_fs()
        b = second_app(kernel)
        a.mkdir("/d")
        a.release_all()
        for i in range(40):
            a.write_file(f"/d/f{i}", b"x")
            a.release_all()
            assert b.stat(f"/d/f{i}").size == 1
            b.release_all()
            a.unlink(f"/d/f{i}")
            a.release_all()
        assert len(b._walks) <= len(b._inodes)

    def test_own_rename_and_rmdir_forget_the_walks_through_the_directory(self, fs):
        fs.makedirs("/a/b/c")
        fs.mkdir("/z")
        fs.write_file("/a/b/c/f", b"deep")
        assert {("a",), ("a", "b"), ("a", "b", "c")} <= set(fs._walks)
        fs.rename("/a/b", "/z/b")
        assert set(fs._walks) == {("a",), ("z",)}
        with pytest.raises(NoEntry):
            fs.stat("/a/b/c/f")
        assert fs.read_file("/z/b/c/f") == b"deep"
        fs.unlink("/z/b/c/f")
        fs.rmdir("/z/b/c")
        assert ("z", "b", "c") not in fs._walks
        with pytest.raises(NoEntry):
            fs.readdir("/z/b/c")
        fs.mkdir("/z/b/c")  # same name, another directory
        assert fs.readdir("/z/b/c") == []


class TestCounts:
    OPS = {  # op -> (call, path arguments)
        "creat": (lambda fs: fs.close(fs.creat("/d/new")), 1),
        "open": (lambda fs: fs.close(fs.open("/d/f")), 1),
        "open-create": (lambda fs: fs.close(fs.open("/d/made", create=True)), 1),
        "stat": (lambda fs: fs.stat("/d/f"), 1),
        "exists": (lambda fs: fs.exists("/d/nope"), 1),
        "readdir": (lambda fs: fs.readdir("/d"), 1),
        "truncate": (lambda fs: fs.truncate("/d/f", 10), 1),
        "mkdir": (lambda fs: fs.mkdir("/d/sub"), 1),
        "rmdir": (lambda fs: fs.rmdir("/d/sub"), 1),
        "rename": (lambda fs: fs.rename("/d/f", "/d/g"), 2),
        "unlink": (lambda fs: fs.unlink("/d/g"), 1),
        "write_file": (lambda fs: fs.write_file("/d/w", b"x"), 1),
        "read_file": (lambda fs: fs.read_file("/d/w"), 1),
        "makedirs": (lambda fs: fs.makedirs("/m/n/o"), 1),
        "commit_path": (lambda fs: fs.commit_path("//"), 1),
        "commit_path-2": (lambda fs: fs.commit_path("/d"), 1),
        "release_path": (lambda fs: fs.release_path("/d/w"), 1),
    }

    def test_one_parse_per_path_argument(self, fs, monkeypatch):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        calls = []
        real = paths.parse
        monkeypatch.setattr(paths, "parse", lambda p: calls.append(p) or real(p))
        for name, (op, expected) in self.OPS.items():
            del calls[:]
            op(fs)
            assert len(calls) == expected, (name, calls)

    def test_a_repeated_name_costs_its_first_walk_once(self, fs):
        """A first resolution extends the parent's walk by one lookup; a
        repeat costs no lookup and no RCU read-side section."""
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        fs.write_file("/d/g", b"x")
        fs._walks.clear()
        before = fs.stats.lookups
        for _ in range(50):
            fs.stat("/d/f")
        assert fs.stats.lookups - before == 2  # d, then f
        sections, before = fs.rcu.read_sections, fs.stats.lookups
        fs.stat("/d/g")
        assert fs.stats.lookups - before == 1
        for _ in range(50):
            fs.stat("/d/g")
            fs.stat("/d/f")
        assert fs.stats.lookups - before == 1
        assert fs.rcu.read_sections - sections == 1

    def test_a_hit_validates_what_the_walk_validated(self, fsx):
        """Not owned, every directory of the chain is asked the kernel's
        version — once per ancestor, as the walk itself does; owned,
        nothing is."""
        _dev, kernel, fs = fsx
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"x")
        stats = kernel.readcache.stats

        def cost():
            before = stats.validations
            fs.stat("/a/b/f")
            return stats.validations - before

        assert cost() == 0  # everything owned
        fs.release_all()
        walked, hit = cost(), cost()
        assert walked == hit == 4  # /, a, b and the file

    def test_walks_leave_with_their_directories(self):
        _dev, _kernel, fs = build_fs(inode_count=2100)
        fs.mkdir("/keep")
        fs.close(fs.creat("/keep/x"))
        start = len(fs._walks)
        for i in range(1000):
            fs.mkdir(f"/d{i}")
            fs.close(fs.creat(f"/d{i}/f"))
            fs.unlink(f"/d{i}/f")
            fs.rmdir(f"/d{i}")
        assert len(fs._walks) == start


class TestSpelling:
    """Every refusal names the canonical path, however the caller spelt it."""

    CASES = [
        (NoEntry, "/d/missing", lambda fs, p: fs.stat(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.open(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.unlink(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.rmdir(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.truncate(p, 0)),
        (NoEntry, "/d/missing", lambda fs, p: fs.readdir(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.read_file(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.commit_path(p)),
        (NoEntry, "/d/missing", lambda fs, p: fs.rename(p, "/d/other")),
        (NoEntry, "/nodir", lambda fs, p: fs.creat(p + "//leaf/")),
        (NotADir, "/d/f", lambda fs, p: fs.readdir(p)),
        (NotADir, "/d/f", lambda fs, p: fs.rmdir(p)),
        (NotADir, "/d/f", lambda fs, p: fs.stat(p + "//below")),
        (IsADir, "/d/sub", lambda fs, p: fs.open(p)),
        (IsADir, "/d/sub", lambda fs, p: fs.unlink(p)),
        (IsADir, "/d/sub", lambda fs, p: fs.truncate(p, 0)),
        (Exists, "/d/f", lambda fs, p: fs.creat(p)),
        (Exists, "/d/sub", lambda fs, p: fs.mkdir(p)),
        (Exists, "/d/f", lambda fs, p: fs.rename("/d/g", p)),
        (NotEmpty, "/d", lambda fs, p: fs.rmdir(p)),
    ]

    def test_errors_name_the_canonical_path(self, fs):
        fs.makedirs("/d/sub")
        fs.write_file("/d/f", b"x")
        fs.write_file("/d/g", b"y")
        for exc_type, canonical, op in self.CASES:
            spelt = canonical.replace("/", "//") + "/"
            with pytest.raises(exc_type) as caught:
                op(fs, spelt)
            assert caught.value.args[-1] == canonical, (exc_type, caught.value.args)


class TestLazyBuckets:
    def test_a_fresh_directory_owns_no_bucket(self, fs):
        fs.mkdir("/d")
        table = fs._resolve(("d",), need_dir=True).dir
        assert len(table.buckets) == 0
        assert fs.readdir("/d") == [] and not fs.exists("/d/x")
        assert len(table.buckets) == 0  # readers never create one
        fs.close(fs.creat("/d/x"))
        assert len(table.buckets) == 1 and table.count == 1
        fs.release_all()
        assert fs.readdir("/d") == ["x"]

    def test_lock_all_holds_off_a_bucket_being_born(self):
        """The §4.3 release excludes an insert whose bucket did not exist
        when it took "all" the locks."""
        table = DirHashTable(ARCKFS_PLUS, RCU("t.rcu"), NodeFreelist(), tag="t")
        held = table.bucket_of(b"already-there")
        table.lock_all()
        assert held.lock.held_by_me()
        born = []
        inserter = threading.Thread(
            target=lambda: born.append(table.bucket_of(b"first-of-its-bucket")))
        assert table.bucket_index(b"first-of-its-bucket") not in table.buckets
        inserter.start()
        inserter.join(0.2)
        assert inserter.is_alive() and not born
        table.unlock_all()
        inserter.join(5)
        assert not inserter.is_alive() and len(born) == 1
        assert not held.lock.locked and len(table.buckets) == 2
