"""End-to-end POSIX-like behaviour of the ArckFS+ LibFS."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    Exists,
    InvalidArgument,
    IsADir,
    NameTooLong,
    NoEntry,
    NotADir,
    NotEmpty,
    WouldLoop,
)
from repro.pm.layout import ITYPE_DIR, ITYPE_FILE


class TestFiles:
    def test_create_write_read(self, fs):
        fd = fs.creat("/f")
        assert fs.pwrite(fd, b"abc", 0) == 3
        assert fs.pread(fd, 10, 0) == b"abc"

    def test_create_existing_fails(self, fs):
        fs.close(fs.creat("/f"))
        with pytest.raises(Exists):
            fs.creat("/f")

    def test_open_missing_fails(self, fs):
        with pytest.raises(NoEntry):
            fs.open("/nope")

    def test_open_create_flag(self, fs):
        fd = fs.open("/f", create=True)
        assert fs.stat("/f").itype == ITYPE_FILE
        fs.close(fd)

    def test_sequential_write_and_read(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"hello ")
        fs.write(fd, b"world")
        fs.lseek(fd, 0)
        assert fs.read(fd, 6) == b"hello "
        assert fs.read(fd, 5) == b"world"
        assert fs.read(fd, 5) == b""

    def test_overwrite_in_place(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"x" * 100, 0)
        fs.pwrite(fd, b"YY", 10)
        data = fs.pread(fd, 100, 0)
        assert data[10:12] == b"YY" and data[:10] == b"x" * 10
        assert fs.stat("/f").size == 100

    def test_multipage_write(self, fs):
        fd = fs.creat("/big")
        payload = bytes(i % 251 for i in range(3 * 4096 + 123))
        fs.pwrite(fd, payload, 0)
        assert fs.pread(fd, len(payload) + 10, 0) == payload

    def test_sparse_hole_reads_zero(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"end", 10000)
        data = fs.pread(fd, 10003, 0)
        assert data[:10000] == b"\0" * 10000
        assert data[10000:] == b"end"

    def test_read_past_eof(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"ab", 0)
        assert fs.pread(fd, 10, 1) == b"b"
        assert fs.pread(fd, 10, 2) == b""
        assert fs.pread(fd, 10, 100) == b""

    def test_truncate_shrink(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"q" * 8192, 0)
        fs.truncate("/f", 4096)
        assert fs.stat("/f").size == 4096
        assert fs.pread(fd, 10000, 0) == b"q" * 4096

    def test_truncate_extend_logical(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"a", 0)
        fs.truncate("/f", 100)
        assert fs.stat("/f").size == 100
        assert fs.pread(fd, 100, 0) == b"a" + b"\0" * 99

    def test_truncate_by_4k_loop(self, fs):
        """The DWTL workload's primitive: shrink a file 4 KiB at a time."""
        fd = fs.creat("/f")
        fs.pwrite(fd, b"z" * (16 * 4096), 0)
        size = 16 * 4096
        while size > 0:
            size -= 4096
            fs.truncate("/f", size)
            assert fs.stat("/f").size == size

    def test_fsync_returns_immediately(self, fs):
        fd = fs.creat("/f")
        fs.fsync(fd)  # §2.2: everything already persisted synchronously

    def test_close_invalidates_fd(self, fs):
        fd = fs.creat("/f")
        fs.close(fd)
        with pytest.raises(BadFileDescriptor):
            fs.pread(fd, 1, 0)
        with pytest.raises(BadFileDescriptor):
            fs.close(fd)

    def test_unlink_removes(self, fs):
        fs.close(fs.creat("/f"))
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(NoEntry):
            fs.unlink("/f")

    def test_unlink_frees_pages(self, fsx):
        _dev, kernel, fs = fsx
        # Warm the root's log tail first: that page legitimately persists.
        fs.close(fs.creat("/warm"))
        fs.unlink("/warm")
        before = kernel.alloc.free_pages()
        fd = fs.creat("/f")
        fs.pwrite(fd, b"x" * (8 * 4096), 0)
        fs.close(fd)
        assert kernel.alloc.free_pages() < before
        fs.unlink("/f")
        assert kernel.alloc.free_pages() == before

    def test_inode_reuse_bumps_generation(self, fsx):
        _dev, kernel, fs = fsx
        fs.close(fs.creat("/f1"))
        g1 = fs.stat("/f1").gen
        ino1 = fs.stat("/f1").ino
        fs.unlink("/f1")
        fs.close(fs.creat("/f2"))
        s2 = fs.stat("/f2")
        if s2.ino == ino1:
            assert s2.gen > g1


class TestNegativeArguments:
    """A negative offset, count or size is ``InvalidArgument``, as the wire
    already answers.  In-process, ``pread`` at ``-4096`` used to return the
    last page, at ``-1`` its last byte, and at ``-9000`` a bare
    ``IndexError``; ``truncate`` to ``-1`` a bare ``struct.error``."""

    @pytest.fixture
    def two_pages(self, fs):
        fd = fs.creat("/f")
        fs.pwrite(fd, b"A" * 4096 + b"B" * 4096, 0)
        return fs, fd

    @pytest.mark.parametrize("offset", [-1, -4096, -9000])
    def test_pread_at_a_negative_offset(self, two_pages, offset):
        fs, fd = two_pages
        with pytest.raises(InvalidArgument):
            fs.pread(fd, 16, offset)

    def test_pread_of_a_negative_count(self, two_pages):
        fs, fd = two_pages
        with pytest.raises(InvalidArgument):
            fs.pread(fd, -1, 0)
        with pytest.raises(InvalidArgument):
            fs.read(fd, -1)

    def test_truncate_to_a_negative_size(self, two_pages):
        fs, fd = two_pages
        with pytest.raises(InvalidArgument):
            fs.truncate("/f", -1)
        assert fs.stat("/f").size == 8192
        assert fs.pread(fd, 16, 4096) == b"B" * 16


class TestDirs:
    def test_mkdir_and_nested(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/a/b/c")
        assert fs.readdir("/a/b") == ["c"]
        assert fs.stat("/a/b/c").itype == ITYPE_DIR

    def test_mkdir_existing_fails(self, fs):
        fs.mkdir("/a")
        with pytest.raises(Exists):
            fs.mkdir("/a")

    def test_mkdir_missing_parent_fails(self, fs):
        with pytest.raises(NoEntry):
            fs.mkdir("/no/such")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/a")
        fs.rmdir("/a")
        assert not fs.exists("/a")

    def test_rmdir_nonempty_fails(self, fs):
        fs.mkdir("/a")
        fs.close(fs.creat("/a/f"))
        with pytest.raises(NotEmpty):
            fs.rmdir("/a")

    def test_rmdir_file_fails(self, fs):
        fs.close(fs.creat("/f"))
        with pytest.raises(NotADir):
            fs.rmdir("/f")

    def test_unlink_dir_fails(self, fs):
        fs.mkdir("/a")
        with pytest.raises(IsADir):
            fs.unlink("/a")

    def test_readdir_many(self, fs):
        fs.mkdir("/d")
        names = sorted(f"f{i:03d}" for i in range(200))
        for n in names:
            fs.close(fs.creat(f"/d/{n}"))
        assert fs.readdir("/d") == names

    def test_file_component_in_path_fails(self, fs):
        fs.close(fs.creat("/f"))
        with pytest.raises(NotADir):
            fs.stat("/f/x")

    def test_stat_root(self, fs):
        st = fs.stat("/")
        assert st.itype == ITYPE_DIR and st.ino == 0


class TestRename:
    def test_rename_within_dir(self, fs):
        fs.close(fs.creat("/old"))
        fs.rename("/old", "/new")
        assert fs.exists("/new") and not fs.exists("/old")

    def test_rename_preserves_content(self, fs):
        fd = fs.creat("/old")
        fs.pwrite(fd, b"payload", 0)
        fs.close(fd)
        fs.mkdir("/d")
        fs.rename("/old", "/d/new")
        fd = fs.open("/d/new")
        assert fs.pread(fd, 100, 0) == b"payload"

    def test_rename_to_existing_fails(self, fs):
        fs.close(fs.creat("/a"))
        fs.close(fs.creat("/b"))
        with pytest.raises(Exists):
            fs.rename("/a", "/b")

    def test_rename_missing_source_fails(self, fs):
        with pytest.raises(NoEntry):
            fs.rename("/nope", "/x")

    def test_rename_dir_into_itself_fails(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        with pytest.raises(WouldLoop):
            fs.rename("/a", "/a/b/a2")

    def test_rename_noop_same_path(self, fs):
        fs.close(fs.creat("/a"))
        fs.rename("/a", "/a")
        assert fs.exists("/a")

    def test_rename_root_fails(self, fs):
        with pytest.raises(InvalidArgument):
            fs.rename("/", "/x")

    def test_directory_relocation_full(self, fsx):
        _dev, kernel, fs = fsx
        fs.mkdir("/src")
        fs.mkdir("/src/d")
        for i in range(5):
            fs.close(fs.creat(f"/src/d/f{i}"))
        fs.mkdir("/dst")
        fs.rename("/src/d", "/dst/d")
        assert fs.readdir("/src") == []
        assert fs.readdir("/dst") == ["d"]
        assert len(fs.readdir("/dst/d")) == 5
        fs.release_all()
        assert kernel.audit_tree() == []


class TestPaths:
    def test_relative_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.stat("relative")

    def test_dot_components_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.stat("/a/../b")

    def test_long_name_rejected(self, fs):
        with pytest.raises(NameTooLong):
            fs.creat("/" + "x" * 300)

    def test_trailing_slash_normalised(self, fs):
        fs.mkdir("/a")
        assert fs.stat("/a/").itype == ITYPE_DIR

    def test_double_slash_normalised(self, fs):
        fs.mkdir("/a")
        fs.close(fs.creat("/a//f"))
        assert fs.exists("/a/f")


class TestOwnershipVerbs:
    def test_commit_keeps_ownership(self, fsx):
        _dev, kernel, fs = fsx
        fs.mkdir("/d")
        fs.commit_path("/")
        fs.commit_path("/d")
        # Still attached: another write needs no re-acquire.
        fs.close(fs.creat("/d/f"))
        assert kernel.acquisitions  # ownership retained

    def test_release_then_reuse(self, fsx):
        _dev, kernel, fs = fsx
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.release_all()
        assert not kernel.acquisitions
        # Transparent re-acquire on next use.
        assert fs.readdir("/d") == ["f"]
        fs.close(fs.creat("/d/g"))
        assert sorted(fs.readdir("/d")) == ["f", "g"]

    def test_released_reads_use_cached_state(self, fsx):
        """§4.3: stat/readdir served from cached aux after release."""
        _dev, kernel, fs = fsx
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.release_all()
        acquires_before = kernel.stats.acquires
        assert fs.stat("/d/f").itype == ITYPE_FILE
        assert fs.readdir("/d") == ["f"]
        assert kernel.stats.acquires == acquires_before
