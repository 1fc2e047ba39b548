"""Transaction handle semantics: buffering, validation, commit, abort.

The crash-atomicity half of the contract lives in
``tests/integration/test_tx_crash.py``; this module covers the in-process
API surface — the staged-namespace validation a :class:`~repro.tx.Tx`
runs at op time, the handle's state machine, the ``VolumeConfig``
unification on the facade, and the server dispatch adapters.
"""

import hashlib
import inspect
from dataclasses import fields

import pytest

from repro import errors as E
from repro import obs
from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.core.config import ARCKFS_PLUS, ArckConfig
from repro.server import dispatch
from repro.server.protocol import error_body, pack_bytes
from repro.pm.layout import PAGE_SIZE, PAGEHDR_SIZE, PageHeader
from repro.tx.log import (
    TX_CREATE,
    TX_PWRITE,
    TX_RENAME,
    TxRecord,
    build_payload,
    read_head,
    write_log,
)


def make_volume():
    return Volume.create(16 * 1024 * 1024, VolumeConfig(inode_count=128))


def fail_at(tx, index):
    """Commit ``tx`` with its apply failing before record ``index``."""
    def fail(ctx):
        if ctx[1] == index:
            raise E.NoSpace("injected at apply")

    failpoints.install("tx.apply_op", fail)
    try:
        with pytest.raises(E.TxAborted):
            tx.commit()
    finally:
        failpoints.remove("tx.apply_op")


class TestStagedValidation:
    """Conflicts surface at op time, against tx-local effects layered
    over the live namespace — and nothing touches PM before commit."""

    def test_create_conflicts_with_live_and_staged(self):
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/live", b"x")
            tx = s.transaction()
            with pytest.raises(E.Exists):
                tx.create("/live")
            tx.create("/staged")
            with pytest.raises(E.Exists):
                tx.create("/staged")
            tx.abort()

    def test_pwrite_requires_file_parent_requires_dir(self):
        with make_volume() as vol, vol.session("app") as s:
            s.mkdir("/live")
            tx = s.transaction()
            with pytest.raises(E.NoEntry):
                tx.pwrite("/missing", b"x", 0)
            with pytest.raises(E.IsADir):     # nothing staged yet: the live
                tx.pwrite("/live", b"x", 0)   # name answers
            with pytest.raises(E.NoEntry):
                tx.create("/nodir/f")
            tx.mkdir("/d")
            with pytest.raises(E.IsADir):
                tx.pwrite("/d", b"x", 0)
            tx.create("/f")
            with pytest.raises(E.NotADir):
                tx.create("/f/child")
            tx.abort()

    def test_unlink_and_rename_validation(self):
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/a", b"a")
            s.write_file("/b", b"b")
            tx = s.transaction()
            with pytest.raises(E.NoEntry):
                tx.unlink("/missing")
            with pytest.raises(E.Exists):
                tx.rename("/a", "/b")
            tx.unlink("/b")
            tx.rename("/a", "/b")  # destination freed by the staged unlink
            with pytest.raises(E.NoEntry):
                tx.pwrite("/a", b"x", 0)  # source gone in the staged view
            tx.abort()

    def test_dir_rename_rehomes_staged_and_live_children(self):
        with make_volume() as vol, vol.session("app") as s:
            s.mkdir("/d")
            s.write_file("/d/live", b"live")
            tx = s.transaction()
            tx.create("/d/staged")
            tx.rename("/d", "/e")
            tx.pwrite("/e/staged", b"s", 0)   # staged child, rehomed
            tx.pwrite("/e/live", b"L", 0)     # live child through the move
            with pytest.raises(E.NoEntry):
                tx.pwrite("/d/live", b"x", 0)  # old name gone in staged view
            tx.commit()
            assert s.read_file("/e/staged") == b"s"
            assert s.read_file("/e/live") == b"Live"

    def test_rename_dir_under_itself_rejected(self):
        with make_volume() as vol, vol.session("app") as s:
            s.mkdir("/d")
            tx = s.transaction()
            with pytest.raises(E.InvalidArgument):
                tx.rename("/d", "/d/sub")
            tx.abort()

    def test_nothing_reaches_pm_before_commit(self):
        with make_volume() as vol, vol.session("app") as s:
            tx = s.transaction()
            tx.mkdir("/d")
            tx.create("/d/f")
            tx.pwrite("/d/f", b"payload", 0)
            assert not s.exists("/d")
            tx.abort()
            assert not s.exists("/d")
        assert vol.fsck().clean


class TestHandleLifecycle:
    def test_commit_applies_all_ops(self):
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/old", b"moved")
            tx = s.transaction()
            tx.mkdir("/batch")
            tx.create("/batch/a")
            tx.pwrite("/batch/a", b"hello", 0)
            tx.rename("/old", "/batch/b")
            tx.truncate("/batch/a", 4)
            stats = tx.commit()
            assert stats["ops"] == 5 and stats["log_pages"] >= 1
            assert s.read_file("/batch/a") == b"hell"
            assert s.read_file("/batch/b") == b"moved"
            assert not s.exists("/old")
        assert vol.fsck().clean

    def test_empty_commit_is_a_noop(self):
        with make_volume() as vol, vol.session("app") as s:
            assert s.transaction().commit() == {
                "ops": 0, "log_pages": 0, "log_bytes": 0}

    def test_handle_is_single_shot(self):
        with make_volume() as vol, vol.session("app") as s:
            tx = s.transaction()
            tx.create("/f")
            tx.commit()
            for call in (lambda: tx.create("/g"), tx.commit, tx.abort):
                with pytest.raises(E.TxError):
                    call()
            tx2 = s.transaction()
            tx2.abort()
            with pytest.raises(E.TxError):
                tx2.commit()

    def test_context_manager_commits_on_clean_exit(self):
        with make_volume() as vol, vol.session("app") as s:
            with s.transaction() as tx:
                tx.create("/f")
                tx.pwrite("/f", b"data", 0)
            assert tx.state == "committed"
            assert s.read_file("/f") == b"data"

    def test_context_manager_aborts_on_exception(self):
        with make_volume() as vol, vol.session("app") as s:
            with pytest.raises(RuntimeError):
                with s.transaction() as tx:
                    tx.create("/f")
                    raise RuntimeError("caller bug")
            assert tx.state == "aborted"
            assert not s.exists("/f")
        assert vol.fsck().clean

    def test_write_file_composes(self):
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/f", b"longer original")
            with s.transaction() as tx:
                tx.write_file("/f", b"new")      # existing: truncate+pwrite
                tx.write_file("/g", b"fresh")    # missing: create+pwrite
            assert s.read_file("/f") == b"new"
            assert s.read_file("/g") == b"fresh"


class TestCreateWithoutDescriptor:
    """A redo record that creates a file creates it through LibFS's
    create path: no ``creat`` and ``close`` round trip, no descriptor slot,
    the record's mode kept, a name that exists already skipped."""

    @staticmethod
    def syscalls():
        return {k.split("{")[0] for k in obs.metrics.snapshot()["histograms"]}

    def test_commit_installs_no_descriptor(self):
        with make_volume() as vol, vol.session("app") as s:
            first = s.creat("/probe")
            s.close(first)
            creates = s.stats.creates
            obs.enable()
            with s.transaction() as tx:
                tx.create("/f", mode=0o640)
                tx.pwrite("/f", b"data", 0)
            obs.disable()
            assert not {"libfs.syscall.creat.ns",
                        "libfs.syscall.close.ns"} & self.syscalls()
            assert s.stats.creates == creates + 1
            assert s.stat("/f").mode == 0o640
            assert s.read_file("/f") == b"data"
            assert s.fdtable.open_count() == 0
            assert s.creat("/next") == first + 1  # no slot was taken
        assert vol.fsck().clean

    def test_commit_records_no_syscall_and_counts_each_record_once(self):
        """A commit is not the user's syscalls: the apply calls LibFS's
        bodies, never a traced verb, and asks no ``stat`` of its own."""
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/g", b"moved")
            s.write_file("/h", b"doomed")
            before = s.stats
            obs.enable()
            with s.transaction() as tx:
                tx.mkdir("/d")
                tx.create("/d/f")
                tx.pwrite("/d/f", b"data", 0)
                tx.rename("/g", "/d/g")
                tx.unlink("/h")
            obs.disable()
            assert not {n for n in self.syscalls()
                        if n.startswith("libfs.syscall.")}
            after = s.stats
            assert {k: getattr(after, k) - getattr(before, k)
                    for k in ("mkdirs", "creates", "writes", "renames",
                              "unlinks", "rmdirs", "opens", "stats_")} == {
                "mkdirs": 1, "creates": 1, "writes": 1, "renames": 1,
                "unlinks": 1, "rmdirs": 0, "opens": 0, "stats_": 0}
            assert s.readdir("/") == ["d"]
            assert s.readdir("/d") == ["f", "g"]
        assert vol.fsck().clean

    def test_replay_creates_once_and_undo_unlinks(self):
        from repro.libfs.libfs import LibFS
        from repro.tx.recovery import apply_records

        with make_volume() as vol:
            replay = LibFS(vol.kernel, "replay", uid=0)
            records = [TxRecord(TX_CREATE, "/r", 0o600)]
            obs.enable()
            apply_records(replay, records)
            ino = replay.stat("/r").ino
            apply_records(replay, records)  # already there: skipped
            obs.disable()
            assert not {"libfs.syscall.creat.ns",
                        "libfs.syscall.close.ns"} & self.syscalls()
            assert replay.stats.creates == 1
            assert (replay.stat("/r").ino, replay.stat("/r").mode) == (ino, 0o600)
            assert replay.fdtable.open_count() == 0
            replay.shutdown()
            with vol.session("app") as s:
                tx = s.transaction()
                tx.create("/new")
                tx.pwrite("/new", b"x", 0)
                fail_at(tx, 1)
                assert not s.exists("/new")
                assert s.fdtable.open_count() == 0
        assert vol.fsck().clean


class TestUndoReversesOnlyItsOwn:
    """A failed apply's undo reverses what the apply did, and a name only
    while it still names the inode the apply made or moved.  A name
    another call made, moved or replaced is left as that call left it.
    Each case failed before the undo worked from the apply's inverses:
    it reversed every applied record by name."""

    def test_create_skipped_over_a_live_file_keeps_it(self):
        with make_volume() as vol, vol.session("app") as s:
            tx = s.transaction()
            tx.create("/f")
            tx.pwrite("/f", b"tx", 0)
            tx.create("/other")
            s.write_file("/f", b"live")      # between stage and commit
            ino = s.stat("/f").ino
            fail_at(tx, 2)
            assert s.read_file("/f") == b"live" and s.stat("/f").ino == ino
            assert not s.exists("/other")
        assert vol.fsck().clean

    def test_mkdir_skipped_over_a_live_directory_keeps_it(self):
        with make_volume() as vol, vol.session("app") as s:
            tx = s.transaction()
            tx.mkdir("/d")
            tx.create("/other")
            s.mkdir("/d")
            ino = s.stat("/d").ino
            fail_at(tx, 1)
            assert s.stat("/d").ino == ino and s.stat("/d").is_dir
            assert not s.exists("/other")
        assert vol.fsck().clean

    def test_rename_made_outside_is_not_reversed(self):
        with make_volume() as vol, vol.session("app") as s:
            s.write_file("/a", b"a")
            tx = s.transaction()
            tx.rename("/a", "/b")
            tx.create("/other")
            s.rename("/a", "/b")
            fail_at(tx, 1)
            assert not s.exists("/a") and s.read_file("/b") == b"a"
            assert not s.exists("/other")
        assert vol.fsck().clean

    def test_a_name_replaced_mid_apply_is_not_removed(self):
        """The name the apply created names another file by the time the
        undo runs: same slot, perhaps, but not the same generation."""
        with make_volume() as vol, vol.session("app") as s:
            tx = s.transaction()
            tx.create("/n")
            tx.create("/m")

            def replace_then_fail(ctx):
                if ctx[1] == 1:
                    made = s.stat("/n")
                    s.unlink("/n")
                    s.write_file("/n", b"theirs")
                    assert (s.stat("/n").ino, s.stat("/n").gen) != (
                        made.ino, made.gen)
                    raise E.NoSpace("injected at apply")

            failpoints.install("tx.apply_op", replace_then_fail)
            try:
                with pytest.raises(E.TxAborted):
                    tx.commit()
            finally:
                failpoints.remove("tx.apply_op")
            assert s.read_file("/n") == b"theirs"
            assert not s.exists("/m")
        assert vol.fsck().clean


class TestPrepare:
    """The optional step before commit for a session that shares its
    volume and keeps what it owns (the server calls it for every wire
    commit): conflicts surface before the seal.  Prepared or not, a failed
    apply restores the state the commit found."""

    def test_conflict_surfaces_before_anything_is_sealed(self):
        with make_volume() as vol, vol.session("a") as a, \
                vol.session("b") as b:
            a.mkdir("/d")
            a.write_file("/d/doomed", b"x")
            a.write_file("/g", b"....")
            a.release_all()
            tx = a.transaction()
            tx.unlink("/d/doomed")
            tx.pwrite("/g", b"A", 0)
            fd = b.open("/g")               # staged first (the next test
            b.pwrite(fd, b"B", 0)           # is the other order): b owns /g
            b.release_path("/")             # ... and nothing on the way
            with pytest.raises(E.TryAgain) as ei:
                tx.prepare()
            assert (ei.value.owner, ei.value.ino) == ("b", b.stat("/g").ino)
            assert tx.state == "open" and read_head(vol.device) == 0
            assert a.exists("/d/doomed")
            b.release_all()
            tx.prepare()
            assert tx.commit()["ops"] == 2
            assert a.read_file("/g") == b"A..." and not a.exists("/d/doomed")
        assert vol.fsck().clean

    def test_conflict_met_while_staging_leaves_the_transaction_open(self):
        """The same conflict one step earlier: staging a ``pwrite`` stats
        the file, and what ``a`` kept of it may not answer while ``b``
        holds it for write."""
        with make_volume() as vol, vol.session("a") as a, \
                vol.session("b") as b:
            a.mkdir("/d")
            a.write_file("/d/doomed", b"x")
            a.write_file("/g", b"....")
            a.release_all()
            fd = b.open("/g")
            b.pwrite(fd, b"B", 0)           # b owns /g ...
            b.release_path("/")             # ... and nothing on the way
            tx = a.transaction()
            tx.unlink("/d/doomed")
            with pytest.raises(E.TryAgain) as ei:
                tx.pwrite("/g", b"A", 0)
            assert (ei.value.owner, ei.value.ino) == ("b", b.stat("/g").ino)
            assert tx.state == "open" and len(tx.ops) == 1
            assert read_head(vol.device) == 0
            b.release_all()
            tx.pwrite("/g", b"A", 0)
            tx.prepare()
            assert tx.commit()["ops"] == 2
            assert a.read_file("/g") == b"A..." and not a.exists("/d/doomed")
        assert vol.fsck().clean

    def test_staged_names_resolve_through_earlier_renames(self):
        """``/b/sub/f`` is ``/a/sub/f`` until the first record applies;
        ``/b`` was something else before the second one."""
        with make_volume() as vol, vol.session("a") as a, \
                vol.session("b") as b:
            a.makedirs("/a/sub")
            a.mkdir("/b")
            a.write_file("/a/sub/f", b"0000")
            a.write_file("/b/decoy", b"----")
            a.release_all()
            tx = a.transaction()
            tx.rename("/b", "/c")
            tx.rename("/a", "/b")
            tx.pwrite("/b/sub/f", b"11", 0)
            fd = b.open("/a/sub/f")
            b.pwrite(fd, b"B", 3)
            for path in ("/", "/a", "/a/sub"):
                b.release_path(path)
            held = b.stat("/a/sub/f").ino   # asked now: prepare takes "/"
            with pytest.raises(E.TryAgain) as ei:
                tx.prepare()
            assert ei.value.ino == held
            with pytest.raises(E.TryAgain) as ei:
                b.stat("/a/sub/f")          # a holds "/" for write by now
            assert ei.value.owner == "a"
            b.release_all()
            tx.prepare()
            tx.commit()
            assert a.read_file("/b/sub/f") == b"110B"
            assert a.read_file("/c/decoy") == b"----"
        assert vol.fsck().clean

    @pytest.mark.parametrize("prepared, survives", [(True, b"v1v0"),
                                                    (False, b"v1v0")])
    def test_failed_apply_rolls_back_to_the_prepared_state(self, prepared,
                                                           survives):
        """Unprepared, the abort used to restore the acquisition's
        snapshot, which lost the acknowledged ``v1``."""
        with make_volume() as vol, vol.session("a") as s:
            s.write_file("/f", b"v0v0")
            s.release_all()
            s.write_file("/f", b"v1")       # dirty since the acquisition
            tx = s.transaction()
            tx.pwrite("/f", b"v2v2", 0)
            tx.create("/new")
            if prepared:
                tx.prepare()
            fail_at(tx, 1)
            assert s.read_file("/f") == survives
            assert not s.exists("/new")
        assert vol.fsck().clean

    @pytest.mark.parametrize("stage", [
        lambda tx: tx.truncate("/f", 5000),
        lambda tx: tx.pwrite("/f", b"z" * 9000, 12000),
    ], ids=["shrinking-truncate", "pwrite-past-eof"])
    def test_failed_apply_restores_bytes_and_size(self, stage):
        """A shrinking truncate cuts bytes (and pages) the undo writes back;
        a write past EOF maps pages and raises the size, which the undo
        takes back down — to what the acknowledged write left, not to the
        acquisition's state."""
        old = bytes(range(256)) * 40 + b"tail"   # 10 244 bytes, three pages
        with make_volume() as vol, vol.session("a") as s:
            s.write_file("/f", b"x" * len(old))
            s.release_all()
            s.write_file("/f", old)             # dirty since the acquisition
            tx = s.transaction()
            stage(tx)
            tx.create("/new")
            fail_at(tx, 1)
            assert s.stat("/f").size == len(old)
            assert s.read_file("/f") == old
            assert not s.exists("/new")
            s.release_all()
            assert s.read_file("/f") == old
        assert vol.fsck().clean


class TestObservedCommit:
    """Off, spans and failpoints cost the commit one test each; on, a
    commit records and hits exactly what it always did."""

    def staged(self, s):
        for i in range(3):
            s.write_file(f"/f{i}", b"a" * 8192)
        tx = s.transaction()
        for i in range(3):
            tx.pwrite(f"/f{i}", b"b" * 4096, 4096)
        return tx

    def tx_spans(self):
        return [(e["name"], e["parent"], e["args"])
                for e in obs.tracer.events() if e["cat"] == "tx"]

    def test_spans_and_counters(self):
        with make_volume() as vol, vol.session("app") as s:
            obs.enable(trace=True)
            tx = self.staged(s)
            result = tx.commit()
            phase = {}
            assert self.tx_spans() == [
                ("tx.log", "tx.commit", phase), ("tx.seal", "tx.commit", phase),
                ("tx.apply", "tx.commit", phase),
                ("tx.checkpoint", "tx.commit", phase),
                ("tx.commit", None, {"txid": tx.txid, "ops": 3})]
            total = obs.metrics.counter_total
            assert (total("tx.begin"), total("tx.ops", op=TX_PWRITE),
                    total("tx.commits")) == (1, 3, 1)
            assert total("tx.log_pages") == result["log_pages"] > 0
            assert total("tx.log_bytes") == result["log_bytes"] > 0
            hits = {name: total("failpoints.hit", name=name) for name in (
                "tx.pre_seal", "tx.post_seal", "tx.apply_op",
                "tx.pre_checkpoint")}
            assert hits == {"tx.pre_seal": 1, "tx.post_seal": 1,
                            "tx.apply_op": 3, "tx.pre_checkpoint": 1}

    def test_a_failed_apply_closes_its_spans_with_the_errors(self):
        with make_volume() as vol, vol.session("app") as s:
            obs.enable(trace=True)
            tx = self.staged(s)
            fail_at(tx, 1)
            spans = self.tx_spans()
            assert [name for name, _parent, _args in spans] == [
                "tx.log", "tx.seal", "tx.apply", "tx.commit"]
            assert spans[2][2] == {"error": "NoSpace"}
            assert spans[3][2]["error"] == "TxAborted"
            assert obs.metrics.counter_total("tx.aborts") == 1

    def test_armed_hooks_see_every_site_in_order(self):
        with make_volume() as vol, vol.session("app") as s:
            tx = self.staged(s)
            seen = []
            for name in ("tx.pre_seal", "tx.post_seal", "tx.apply_op",
                         "tx.pre_checkpoint"):
                failpoints.install(
                    name, lambda ctx, name=name: seen.append((name, ctx)))
            tx.commit()
            t = tx.txid
            assert seen == [("tx.pre_seal", t), ("tx.post_seal", t),
                            ("tx.apply_op", (t, 0)), ("tx.apply_op", (t, 1)),
                            ("tx.apply_op", (t, 2)), ("tx.pre_checkpoint", t)]


class TestLogBytes:
    """The redo log's bytes on media, pinned: how ``write_log`` lays out
    its page images may change, the images may not."""

    RECORDS = [TxRecord(TX_CREATE, "/a", 0o664), TxRecord(TX_PWRITE, "/a", 3, b"hi"),
               TxRecord(TX_RENAME, "/a", data=b"/b")]
    PAYLOAD = (
        "4c58544f525045520700000000000000030000003d1414f87c81379eb401000000"
        "0000000102000000000000002f616894c00103000000000000000302000000020000"
        "002f6168699910472f00000000000000000402000000020000002f612f62")
    #: next_page 0, used 97, kind TXLOG: the one page's header.
    HEADER = "00000000000000006100030000000000"

    def images(self, kernel, pages):
        out = []
        for page_no in pages:
            off = kernel.geom.page_off(page_no)
            hdr = PageHeader.unpack(kernel.device.load(off, PAGEHDR_SIZE))
            out.append(kernel.device.load(off, PAGEHDR_SIZE + hdr.used))
        return out

    def test_small_transaction_payload_and_page_image(self):
        kernel = make_volume().kernel
        payload = build_payload(7, self.RECORDS)
        assert payload.hex() == self.PAYLOAD
        pages = write_log(kernel.device, kernel.geom, kernel.alloc, payload)
        assert [img.hex() for img in self.images(kernel, pages)] == [
            self.HEADER + self.PAYLOAD]

    def test_multi_page_log_images(self):
        """Three chained pages, the last one short."""
        kernel = make_volume().kernel
        payload = build_payload(8, [TxRecord(TX_PWRITE, "/big", 5,
                                             bytes(range(256)) * 40)])
        pages = write_log(kernel.device, kernel.geom, kernel.alloc, payload)
        images = self.images(kernel, pages)
        assert [len(img) for img in images] == [PAGE_SIZE, PAGE_SIZE, 2145]
        assert hashlib.sha256(b"".join(images)).hexdigest() == (
            "3d3621ba2a3dbc49aa7271bb175a1bfec42f6b2e95dc85b559efa19d4487f2c0")


class TestLogPagesRecycle:
    """The checkpoint hands a commit's log pages back to the committing
    thread's pool, so the next commit's log lands on the same pages: a warm
    commit refills nothing and stores no bitmap byte."""

    FILES = ("/a", "/b", "/c")

    def logs(self, monkeypatch):
        """The page list of every log written from here on."""
        from repro.tx import manager
        real, out = manager.write_log, []

        def spy(*args):
            out.append(real(*args))
            return out[-1]

        monkeypatch.setattr(manager, "write_log", spy)
        return out

    def tx3(self, s, byte):
        with s.transaction() as tx:
            for path in self.FILES:
                tx.pwrite(path, byte * PAGE_SIZE, PAGE_SIZE)

    @pytest.mark.parametrize("between", [0, 1])
    def test_warm_commits_reuse_their_log_pages(self, monkeypatch, between):
        """Back to back, or with an append that draws a page from the
        committing thread's pool between two commits."""
        with make_volume() as vol, vol.session("app") as s:
            for path in self.FILES + ("/grow",):
                s.write_file(path, b"a" * 2 * PAGE_SIZE)
            self.tx3(s, b"w")                        # warm
            alloc, geom, device = vol.kernel.alloc, vol.kernel.geom, vol.device
            logs, refills = self.logs(monkeypatch), alloc.stats.pool_refills
            bitmap = range(geom.bitmap_off, geom.data_off)
            stored, store = [], device.store
            monkeypatch.setattr(device, "store", lambda addr, data: (
                stored.append(addr), store(addr, data)))
            fd = s.open("/grow")
            for i, byte in enumerate(b"xyz"):
                self.tx3(s, bytes([byte]))
                if between:
                    s.pwrite(fd, b"g" * PAGE_SIZE, (2 + i) * PAGE_SIZE)
            s.close(fd)
            assert len(logs) == 3 and logs[0] == logs[1] == logs[2]
            assert len(logs[0]) > 1                  # the 3 x 4 KiB need pages
            assert alloc.stats.pool_refills == refills
            assert not [a for a in stored if a in bitmap]
            assert set(logs[0]) <= alloc.pooled_pages()
            assert all(alloc.is_allocated(p) for p in logs[0])

    def test_a_log_larger_than_the_pool_frees_its_excess(self, monkeypatch):
        with make_volume() as vol, vol.session("app") as s:
            alloc = vol.kernel.alloc
            s.write_file("/big", b"")
            logs = self.logs(monkeypatch)
            with s.transaction() as tx:
                tx.pwrite("/big", b"b" * (alloc.pool_pages + 8) * PAGE_SIZE, 0)
            (log,) = logs
            assert len(log) > alloc.pool_pages
            pooled = alloc.pooled_pages()
            kept = [p for p in log if p in pooled]
            assert kept == log[:alloc.pool_pages]    # a prefix, the rest freed
            assert not any(alloc.is_allocated(p) for p in log[len(kept):])
            assert vol.fsck().clean

    @pytest.mark.parametrize("how", ["release_all", "quiesce"])
    def test_release_and_quiesce_leave_nothing_reserved(self, how):
        from repro.fsck import F_PAGE_RESERVED
        with make_volume() as vol, vol.session("app") as s:
            for path in self.FILES:
                s.write_file(path, b"a" * 2 * PAGE_SIZE)
            self.tx3(s, b"x")
            assert vol.kernel.alloc.pooled_pages()
            getattr(s if how == "release_all" else vol, how)()
            assert vol.kernel.alloc.pooled_pages() == set()
            assert not vol.fsck().by_class(F_PAGE_RESERVED)


class TestExitCodes:
    @pytest.mark.parametrize("exc", [
        E.TxError("x"), E.TxAborted("x"), E.TxCommitPending("x"),
    ])
    def test_tx_family_exits_9(self, exc):
        assert E.exit_code_for(exc) == E.EXIT_TX == 9

    def test_codes_and_retryability_are_stable(self):
        assert E.TxError("x").code == 220
        assert E.TxAborted("x").code == 221
        assert E.TxCommitPending("x").code == 222
        assert not E.TxError("x").retryable
        assert E.TxAborted("x").retryable
        assert not E.TxCommitPending("x").retryable


class TestVolumeConfig:
    def test_one_home_per_knob_and_no_keyword_shims(self):
        """Structural: no knob lives on both config types, and the two
        constructors take nothing but ``config`` (and ``device``)."""
        shared = {f.name for f in fields(VolumeConfig)} & \
            {f.name for f in fields(ArckConfig)}
        # ``name`` is two different labels (the volume's metrics label and
        # the variant's name), not one knob with two homes.
        assert shared == {"name"}
        assert list(inspect.signature(Volume.create).parameters) == \
            ["size", "config", "device"]
        assert list(inspect.signature(Volume.mount).parameters) == \
            ["source", "config"]

    def test_bare_arckconfig_and_old_keywords_are_type_errors(self):
        with pytest.raises(TypeError):
            Volume.create(8 * 1024 * 1024, config=ARCKFS_PLUS)
        with pytest.raises(TypeError):
            Volume.create(8 * 1024 * 1024, inode_count=64)
        image = Volume.create(8 * 1024 * 1024).device.durable_image()
        with pytest.raises(TypeError):
            Volume.mount(image, config=ARCKFS_PLUS)
        with pytest.raises(TypeError):
            Volume.mount(image, inode_count=64)

    def test_mount_accepts_volumeconfig(self):
        src = Volume.create(8 * 1024 * 1024)
        with src.session("w") as s:
            s.write_file("/f", b"x")
        vol = Volume.mount(src.device.durable_image(),
                           config=VolumeConfig(name="mounted"))
        assert vol.name == "mounted"
        with vol.session("r") as s:
            assert s.read_file("/f") == b"x"


class TestDispatch:
    """The server's tx_* adapters, driven directly against a Session."""

    def test_begin_op_commit_roundtrip(self):
        with make_volume() as vol, vol.session("tenant") as s:
            out = dispatch.op_tx_begin(s, {})
            assert out["txid"] >= 1
            dispatch.op_tx_op(s, {"op": "mkdir", "path": "/d"})
            dispatch.op_tx_op(s, {"op": "create", "path": "/d/f"})
            n = dispatch.op_tx_op(s, {
                "op": "pwrite", "path": "/d/f",
                "data": pack_bytes(b"wire"), "offset": 0})
            assert n["ops"] == 3
            stats = dispatch.op_tx_commit(s, {})
            assert stats["ops"] == 3
            assert s.read_file("/d/f") == b"wire"

    def test_abort_discards(self):
        with make_volume() as vol, vol.session("tenant") as s:
            dispatch.op_tx_begin(s, {})
            dispatch.op_tx_op(s, {"op": "create", "path": "/f"})
            dispatch.op_tx_abort(s, {})
            assert not s.exists("/f")

    def test_misuse_raises_typed_tx_errors(self):
        with make_volume() as vol, vol.session("tenant") as s:
            with pytest.raises(E.TxError):
                dispatch.op_tx_op(s, {"op": "create", "path": "/f"})
            with pytest.raises(E.TxError):
                dispatch.op_tx_commit(s, {})
            dispatch.op_tx_begin(s, {})
            with pytest.raises(E.TxError):
                dispatch.op_tx_begin(s, {})
            with pytest.raises(E.InvalidArgument):
                dispatch.op_tx_op(s, {"op": "chmod", "path": "/f"})
            dispatch.op_tx_abort(s, {})
            # the handle is gone after abort; commit is a typed error again
            with pytest.raises(E.TxError):
                dispatch.op_tx_commit(s, {})

    def test_error_bodies_carry_code_and_retryable(self):
        body = error_body(E.TxAborted("rolled back"))
        assert body["type"] == "TxAborted"
        assert body["code"] == 221 and body["retryable"] is True
        body = error_body(E.TxCommitPending("remount"))
        assert body["code"] == 222 and body["retryable"] is False

    def test_ops_registered_in_dispatch_table(self):
        for method in ("tx_begin", "tx_op", "tx_commit", "tx_abort"):
            assert method in dispatch.SESSION_OPS
