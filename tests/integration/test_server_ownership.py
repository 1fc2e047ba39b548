"""The server's ownership policy: retain between requests, recall on conflict.

A wire session keeps the inodes it acquired, exactly as an in-process
``Session`` does; they are released — and verified — when another session
needs one (the coordinator recalls the holder and re-runs the op
server-side), when the holder has been quiet for one reaper tick, or when
the session ends.  DESIGN §10 is the contract these tests pin:

* a failed op leaves nobody wedged (it did while the server released only
  after *successful* requests);
* a sole owner is not released at all while it keeps working;
* sessions sharing a directory spine never see ``TryAgain`` and the tree
  they build together is the one a sequential model predicts;
* a verification failure found by a recall is told to the holder, once,
  not to the session that asked;
* a transaction meets its conflicts before it seals, and one that fails
  while applying restores the state that commit found — not the older one
  the session first acquired;
* a quiet session's holdings are gone after a tick, its token is not, and
  a release that fails does not take the reaper with it;
* an owner the server cannot recall still surfaces as retryable.
"""

import asyncio
import random

import pytest

from repro import errors, obs
from repro.concurrency.failpoints import failpoints
from repro.server import ServerClient, ServerConfig, protocol
from tests.conftest import dir_entries
from tests.integration.test_attack_scenario import corrupt_dir
from tests.integration.test_server import run, serving

pytestmark = pytest.mark.timeout(60)


def assert_settled(volume) -> None:
    """What every drained volume must look like."""
    kernel = volume.kernel
    assert not kernel.acquisitions
    assert kernel.audit_tree() == []
    report = volume.fsck()
    assert report.clean, report.summary()


async def connect(server) -> ServerClient:
    return await ServerClient.connect("127.0.0.1", server.port)


def test_failed_op_leaves_nobody_wedged():
    async def main():
        obs.enable()
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme")
                b = await cli.open_session("acme")
                with pytest.raises(errors.NoEntry):
                    await cli.call("stat", session=a, path="/missing")
                # No client retry: one request, one answer.
                assert (await cli.call("stat", session=b, path="/"))["ino"] == 0
                await cli.call("creat", session=a, path="/once")
                with pytest.raises(errors.Exists):
                    await cli.call("creat", session=a, path="/once")
                assert (await cli.call("stat", session=b, path="/"))["ino"] == 0
                assert obs.metrics.counter_total(
                    "client.retries", type="TryAgain") == 0
                # One recall per hand-over of "/": a -> b, b -> a, and a -> b
                # again — a holds "/" for write by then, so what b kept of
                # it may no longer answer (it used to, stale: 2 recalls).
                assert (await cli.stats())["tenants"]["acme"]["recalls"] == 3
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_held_by_another_session_is_not_absent():
    """``exists`` used to swallow the conflict and answer "no"."""
    async def main():
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme")
                b = await cli.open_session("acme")
                await cli.call("mkdir", session=a, path="/d")
                await cli.write_file(a, "/d/f", b"held by A")
                assert await cli.call("exists", session=b, path="/d/f") \
                    == {"exists": True}
                assert await cli.call("exists", session=b, path="/d/nope") \
                    == {"exists": False}
                # B now holds / and /d's lineage; A takes /d back, and B's
                # makedirs must see it as there, not try to mkdir it.
                await cli.write_file(a, "/d/g", b"x")
                await cli.call("makedirs", session=b, path="/d/e")
                assert (await cli.call("readdir", session=b,
                                       path="/d"))["names"] == ["e", "f", "g"]
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_unlink_of_a_file_held_elsewhere_is_recalled_and_done():
    """B holds the file but not its directory (a descriptor re-attaches
    only the file).  A's unlink meets B at the file; the server recalls B
    and re-runs it.  The re-run used to answer ``NoEntry`` — the first run
    had already removed the name — and the drained volume kept the file as
    an orphan."""
    async def main():
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme")
                b = await cli.open_session("acme")
                await cli.call("mkdir", session=a, path="/d")
                await cli.write_file(a, "/d/f", b"x")
                await cli.call("release", session=a)
                fd = (await cli.call("open", session=b, path="/d/f"))["fd"]
                await cli.call("release", session=b)
                await cli.call("pwrite", session=b, fd=fd, data=b"held by B",
                               offset=0)
                assert len(volumes["acme"].kernel.acquisitions) == 1  # B's file
                assert await cli.call("unlink", session=a, path="/d/f") == {}
                assert (await cli.stats())["tenants"]["acme"]["recalls"] == 1
                assert (await cli.call("readdir", session=a,
                                       path="/d"))["names"] == []
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_reused_inode_slot_over_the_wire():
    """The in-process reproducer (``test_sharing.py``), two sessions of one
    tenant: what B kept of ``/d`` and of the file may not answer once A
    has written them, so B is told ``NoEntry`` — typed, and without ever
    seeing the ``TryAgain`` the hand-overs raise on the way."""
    async def main():
        obs.enable()
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme")
                b = await cli.open_session("acme")
                await cli.call("mkdir", session=a, path="/d")
                await cli.write_file(a, "/d/f", b"first file, long gone soon")
                ino = (await cli.call("stat", session=b, path="/d/f"))["ino"]
                assert await cli.read_file(b, "/d/f") \
                    == b"first file, long gone soon"
                recalls = (await cli.stats())["tenants"]["acme"]["recalls"]
                await cli.call("unlink", session=a, path="/d/f")
                await cli.call("release", session=a)  # verified: slot free
                await cli.write_file(a, "/g", b"another file in the same slot")
                assert (await cli.call("stat", session=a,
                                       path="/g"))["ino"] == ino
                with pytest.raises(errors.NoEntry):
                    await cli.read_file(b, "/d/f")
                assert await cli.read_file(b, "/g") \
                    == b"another file in the same slot"
                stats = (await cli.stats())["tenants"]["acme"]
                assert stats["recalls"] >= recalls + 2   # B -> A -> B
                assert obs.metrics.counter_total(
                    "client.retries", type="TryAgain") == 0
                assert obs.metrics.counter_total(
                    "server.op_errors", type="TryAgain") == 0
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_a_session_that_only_read_is_not_recalled_by_a_write():
    """B reads ``/f`` through an fd: it borrowed the kernel's published
    mapping and owns nothing of the file, so A's write revokes the mapping
    and recalls nobody — and B's next read through the same fd is A's."""
    async def main():
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme")
                b = await cli.open_session("acme")
                await cli.write_file(a, "/f", b"old bytes")
                fd = (await cli.call("open", session=b, path="/f"))["fd"]
                read = dict(session=b, fd=fd, n=64, offset=0)
                assert (await cli.call("pread", **read))["data"] == b"old bytes"
                kernel = volumes["acme"].kernel
                ino = (await cli.call("stat", session=b, path="/f"))["ino"]
                assert ino not in kernel.acquisitions   # B's open took "/" only
                recalls = server.stats()["tenants"]["acme"]["recalls"]
                await cli.write_file(a, "/f", b"new bytes")
                assert server.stats()["tenants"]["acme"]["recalls"] == recalls
                assert kernel.acquisitions[ino].app_id == "acme#1"
                assert (await cli.call("pread", **read))["data"] == b"new bytes"
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_another_uid_is_refused_a_private_file_it_could_borrow():
    """A wire client picks its uid at ``session.open`` and a mode at
    ``creat``; the recall B's ``open`` causes makes A release ``/secret``,
    which publishes it — and borrowing is checked like acquiring is."""
    async def main():
        async with serving() as (server, volumes):
            async with await connect(server) as cli:
                a = await cli.open_session("acme", uid=1000)
                b = await cli.open_session("acme", uid=1001)
                fd = (await cli.call("creat", session=a, path="/secret",
                                     mode=0o600))["fd"]
                await cli.call("pwrite", session=a, fd=fd, offset=0,
                               data=protocol.pack_bytes(b"uid 1000 only"))
                await cli.call("close", session=a, fd=fd)
                for _ in range(2):  # after recalling A, then straight off the table
                    with pytest.raises(errors.PermissionDenied):
                        await cli.call("open", session=b, path="/secret")
                with pytest.raises(errors.PermissionDenied):
                    await cli.read_file(b, "/secret")
                same = await cli.open_session("acme", uid=1000)
                assert await cli.read_file(same, "/secret") == b"uid 1000 only"
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_sole_owner_is_not_released_while_it_works():
    async def main():
        async with serving() as (server, volumes):
            kernel = volumes["acme"].kernel
            async with await connect(server) as cli:
                tok = await cli.open_session("acme")
                await cli.call("makedirs", session=tok, path="/own/deep")
                files = [f"/own/f{i}" for i in range(4)] + ["/own/deep/g"]
                for path in files:
                    await cli.write_file(tok, path, b"seed")
                rng = random.Random(18)
                before = kernel.stats.releases
                for i in range(200):
                    path = rng.choice(files)
                    kind = rng.choice(["read", "write", "stat", "readdir",
                                       "rename", "open", "truncate"])
                    if kind == "read":
                        await cli.read_file(tok, path)
                    elif kind == "write":
                        await cli.write_file(tok, path, bytes([i % 256]) * 700)
                    elif kind == "stat":
                        await cli.call("stat", session=tok, path=path)
                    elif kind == "readdir":
                        await cli.call("readdir", session=tok, path="/own")
                    elif kind == "rename":
                        await cli.rename(tok, path, path + ".tmp")
                        await cli.rename(tok, path + ".tmp", path)
                    elif kind == "open":
                        fd = await cli.call("open", session=tok, path=path)
                        await cli.call("close", session=tok, fd=fd["fd"])
                    else:
                        await cli.call("truncate", session=tok, path=path,
                                       size=rng.randrange(2000))
                assert kernel.stats.releases == before
                assert kernel.acquisitions  # retained, as a Session would
                assert server.stats()["tenants"]["acme"]["recalls"] == 0
            await server.drain()
            assert kernel.stats.releases > before
            assert_settled(volumes["acme"])
    run(main())


class TestSharedSpine:
    K = 8
    OPS = 40
    COMMON = ("/common/a", "/common/b")

    async def worker(self, cli, tok, k, model):
        """One session's seeded stream.  It only ever names its own files
        (``k`` is in every name), in its own directory and in the two
        everybody writes to, so the model needs no interleaving."""
        rng = random.Random(f"spine:{k}")
        dirs = (f"/s{k}",) + self.COMMON
        mine = []
        for i in range(self.OPS):
            kind = rng.choice(["creat", "creat", "write", "read", "read",
                               "rename", "unlink", "tx"])
            if kind == "creat" or not mine:
                path = f"{rng.choice(dirs)}/k{k}-{i}"
                data = bytes([k]) * rng.randrange(1, 3000)
                await cli.call("write_file", session=tok, path=path,
                               data=protocol.pack_bytes(data))
                model[path] = data
                mine.append(path)
                continue
            path = rng.choice(mine)
            if kind == "tx":
                # One commit across the spine: drop a file, make another,
                # patch a third's head (maybe the one just made) and move
                # it.  Anything but a commit fails the worker.
                new = f"{rng.choice(dirs)}/k{k}-{i}t"
                moved = f"{rng.choice(dirs)}/k{k}-{i}m"
                data = bytes([k ^ i]) * rng.randrange(1, 3000)
                keep = rng.choice([p for p in mine if p != path] + [new])
                await cli.call("tx_begin", session=tok)
                for params in (
                        dict(op="unlink", path=path),
                        dict(op="write_file", path=new,
                             data=protocol.pack_bytes(data)),
                        dict(op="pwrite", path=keep, offset=0,
                             data=protocol.pack_bytes(b"tx")),
                        dict(op="rename", old=keep, new=moved)):
                    await cli.call("tx_op", session=tok, **params)
                await cli.call("tx_commit", session=tok)
                del model[path]
                model[new] = data
                model[moved] = b"tx" + model.pop(keep)[2:]
                mine.remove(path)
                mine.append(new)
                mine[mine.index(keep)] = moved
            elif kind == "write":
                data = bytes([i]) * rng.randrange(1, 3000)
                await cli.call("write_file", session=tok, path=path,
                               data=protocol.pack_bytes(data))
                # write_file overwrites from 0; it does not truncate.
                model[path] = data + model[path][len(data):]
            elif kind == "read":
                got = await cli.call("read_file", session=tok, path=path)
                assert protocol.unpack_bytes(got["data"]) == model[path]
            elif kind == "rename":
                new = f"{rng.choice(dirs)}/k{k}-{i}r"
                await cli.call("rename", session=tok, old=path, new=new)
                model[new] = model.pop(path)
                mine[mine.index(path)] = new
            else:
                await cli.call("unlink", session=tok, path=path)
                del model[path]
                mine.remove(path)

    def test_tree_matches_model_and_no_tryagain_reaches_a_client(self):
        async def main():
            async with serving() as (server, volumes):
                vol = volumes["acme"]
                model = {}
                async with await connect(server) as cli:
                    toks = [await cli.open_session("acme")
                            for _ in range(self.K)]
                    for path in self.COMMON:
                        await cli.call("makedirs", session=toks[0], path=path)
                    for k, tok in enumerate(toks):
                        await cli.call("mkdir", session=tok, path=f"/s{k}")
                    # ``call``, not ``call_retry``: a TryAgain that reached
                    # a client would fail its worker.
                    await asyncio.gather(*(
                        self.worker(cli, tok, k, model)
                        for k, tok in enumerate(toks)))
                    assert cli.sent == cli.received
                    assert cli.unmatched == 0 and not cli._pending
                    assert server.stats()["tenants"]["acme"]["recalls"] > 0
                await server.drain()
                # Every acquisition is verified once, when it is given up,
                # and nothing verifies in place: a transaction undoes a
                # failed apply from its own before-images.
                stats = vol.kernel.stats
                assert stats.commits == 0
                assert stats.verifications <= stats.acquires
                assert_settled(vol)
                with vol.session("reader") as fs:
                    tree = {}
                    stack = ["/"]
                    while stack:
                        d = stack.pop()
                        for name in fs.readdir(d):
                            path = f"{d.rstrip('/')}/{name}"
                            if fs.stat(path).is_dir:
                                stack.append(path)
                            else:
                                tree[path] = fs.read_file(path)
                assert tree == model
        run(main())

    def test_contended_creates_strand_no_inode(self):
        """Two sessions fill one directory: every create by the one that
        does not hold it is recalled and re-run, and each re-run used to
        leave the slot its first attempt took pending, owned by the loser,
        until the session closed.  ``release`` must hand back everything."""
        async def main():
            async with serving() as (server, volumes):
                kernel = volumes["acme"].kernel
                async with await connect(server) as cli:
                    a, b = [await cli.open_session("acme") for _ in "ab"]
                    await cli.call("mkdir", session=a, path="/d")
                    for i in range(50):
                        for tok, who in ((a, "a"), (b, "b")):
                            fd = await cli.call("creat", session=tok,
                                                path=f"/d/{who}{i}")
                            await cli.call("close", session=tok, fd=fd["fd"])
                    assert server.stats()["tenants"]["acme"]["recalls"] >= 50
                    for tok in (a, b):
                        await cli.call("release", session=tok)
                    assert not kernel.acquisitions
                    assert not kernel.pending
                await server.drain()
                assert_settled(volumes["acme"])
                with volumes["acme"].session("reader") as fs:
                    assert len(fs.readdir("/d")) == 100
        run(main())


class TestAttribution:
    async def forge(self, server, cli, tok):
        """Holder ``tok`` scribbles over ``/shared``'s log through its own
        mapping (the §3.1 attacker's move) and keeps holding it."""
        await cli.call("makedirs", session=tok, path="/shared")
        await cli.write_file(tok, "/shared/kept", b"verified")
        # Snapshot == current state, so the rollback restores exactly this.
        await cli.call("release", session=tok)
        corrupt_dir(server.sessions.lookup(tok).session.fs, "/shared")

    def test_holder_is_told_once_and_the_recaller_proceeds(self):
        async def main():
            obs.enable()
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    a = await cli.open_session("acme")
                    b = await cli.open_session("acme")
                    await self.forge(server, cli, a)
                    # B's op succeeds, on the rolled-back (verified) state.
                    names = await cli.call("readdir", session=b,
                                           path="/shared")
                    assert names == {"names": ["kept"]}
                    assert await cli.read_file(b, "/shared/kept") == b"verified"
                    # A is the one told — exactly once.
                    with pytest.raises(errors.CorruptionDetected):
                        await cli.call("stat", session=a, path="/")
                    assert (await cli.call("stat", session=a,
                                           path="/shared/kept"))["size"] == 8
                    snap = obs.metrics.snapshot()["counters"]
                    assert snap["server.deferred_errors{tenant=acme}"] == 1
                    assert server.stats()["tenants"]["acme"]["recalls"] >= 1
                    assert "server.recall_failures" not in snap
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())

    def test_closing_with_forged_holdings_strands_nothing(self):
        async def main():
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    a = await cli.open_session("acme")
                    b = await cli.open_session("acme")
                    await self.forge(server, cli, a)
                    # Released after /shared, whose verification fails: it
                    # must not stay owned by an app that no longer exists.
                    await cli.write_file(a, "/after", b"x")
                    assert await cli.close_session(a)
                    assert not volumes["acme"].kernel.acquisitions
                    assert await cli.read_file(b, "/after") == b"x"
                    assert (await cli.call("readdir", session=b,
                                           path="/shared"))["names"] == ["kept"]
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())


class TestTransactions:
    """``tx_commit`` is the one op the server cannot re-run once it has
    sealed, and the one whose failure restores kernel snapshots."""

    @staticmethod
    async def stage(cli, tok, *ops):
        await cli.call("tx_begin", session=tok)
        for op, path, payload in ops:
            extra = {} if payload is None else {
                "data": protocol.pack_bytes(payload), "offset": 0}
            await cli.call("tx_op", session=tok, op=op, path=path, **extra)

    def test_commit_meets_a_holder_before_it_seals(self):
        async def main():
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    b = await cli.open_session("acme")
                    c = await cli.open_session("acme")
                    await cli.write_file(c, "/f", b"old")
                    await self.stage(cli, b, ("pwrite", "/f", b"NEW"))
                    # C takes the file back between B's staging and commit.
                    await cli.write_file(c, "/f", b"old")
                    assert (await cli.call("tx_commit", session=b))["ops"] == 1
                    assert await cli.read_file(c, "/f") == b"NEW"
                    assert server.stats()["tenants"]["acme"]["recalls"] >= 3
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())

    def test_conflict_after_an_unlink_never_leaves_the_log_pending(self):
        """[unlink, pwrite of a file another session holds through an fd]:
        met mid-apply this is ``TxCommitPending`` — remount to recover."""
        async def main():
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    a = await cli.open_session("acme")
                    b = await cli.open_session("acme")
                    await cli.call("mkdir", session=a, path="/a")
                    await cli.write_file(a, "/a/x", b"doomed")
                    await cli.write_file(a, "/g", b"....")
                    fd = (await cli.call("open", session=b, path="/g"))["fd"]
                    # B only borrowed /g: A's write revokes the mapping
                    # and recalls nobody.
                    await cli.write_file(a, "/g", b"....")
                    # Through its fd B takes the file alone for write; the
                    # root its open walked it holds for read, which leaves
                    # A's retained root current — nothing on A's path walk
                    # meets B.
                    await cli.call("pwrite", session=b, fd=fd, offset=0,
                                   data=protocol.pack_bytes(b"B"))
                    kernel = volumes["acme"].kernel
                    assert [acq.writable for acq in kernel.acquisitions.values()
                            if acq.app_id == "acme#2"] == [False, True]
                    await self.stage(cli, a, ("unlink", "/a/x", None),
                                     ("pwrite", "/g", b"A"))
                    assert (await cli.call("tx_commit", session=a))["ops"] == 2
                    assert not (await cli.call("exists", session=b,
                                               path="/a/x"))["exists"]
                    assert await cli.read_file(b, "/g") == b"A..."
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())

    def test_directory_relocation_takes_the_destination_chain(self):
        """A cross-directory rename of a directory commits every directory
        from the root down to the new parent — the upper two held by two
        other sessions here, neither on a walk A cannot serve from what it
        kept: the commit's ``prepare`` is where it meets them, one recall
        each."""
        async def main():
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    a, b, c = [await cli.open_session("acme")
                               for _ in range(3)]
                    await cli.call("makedirs", session=a, path="/src/sub")
                    await cli.call("makedirs", session=a, path="/dst/deep")
                    await cli.call("mkdir", session=a, path="/side")
                    await cli.write_file(a, "/src/sub/f", b"moved along")
                    await cli.write_file(a, "/src/junk", b"doomed")
                    # C learns the root; B takes it from C — for read, on
                    # its way to a write beside the chain that stays
                    # unverified until B is recalled; C, whose root B's
                    # read hold leaves current, comes back for /dst alone.
                    # A recall is per session, so the chain needs two
                    # holders to matter; and a read hold moves no version,
                    # so no walk of A's meets either of them.
                    await cli.call("readdir", session=c, path="/")
                    await cli.write_file(b, "/side/b", b"B was here")
                    assert (await cli.call("readdir", session=c,
                                           path="/dst"))["names"] == ["deep"]
                    kernel = volumes["acme"].kernel
                    owner = {ino: acq.app_id
                             for ino, acq in kernel.acquisitions.items()}
                    dst = dir_entries(kernel.core, 0)[b"dst"][0].ino
                    assert (owner[0], owner[dst]) == ("acme#2", "acme#3")
                    assert set(owner.values()) == {"acme#2", "acme#3"}
                    recalls = (await cli.stats())["tenants"]["acme"]["recalls"]
                    await cli.call("tx_begin", session=a)
                    await cli.call("tx_op", session=a, op="unlink",
                                   path="/src/junk")
                    await cli.call("tx_op", session=a, op="rename",
                                   old="/src/sub", new="/dst/deep/sub")
                    await cli.call("tx_op", session=a, op="pwrite",
                                   path="/dst/deep/sub/f", offset=0,
                                   data=protocol.pack_bytes(b"MOVED"))
                    stats = (await cli.stats())["tenants"]["acme"]
                    assert stats["recalls"] == recalls      # staged from cache
                    assert (await cli.call("tx_commit", session=a))["ops"] == 3
                    stats = (await cli.stats())["tenants"]["acme"]
                    assert stats["recalls"] == recalls + 2  # met at prepare
                    d = await cli.open_session("acme")  # nothing cached
                    assert (await cli.call("readdir", session=d,
                                           path="/src"))["names"] == []
                    assert await cli.read_file(d, "/dst/deep/sub/f") \
                        == b"MOVED along"
                    assert await cli.read_file(d, "/side/b") == b"B was here"
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())

    @pytest.mark.parametrize("verified_before", [True, False],
                             ids=["verified", "never-verified"])
    def test_failed_apply_restores_what_the_commit_found(self,
                                                         verified_before):
        """Acknowledged before the transaction means kept after its abort.
        The rollback point used to be the acquisition's snapshot — with
        ownership retained, the file as it was when this session first
        touched it (and nothing at all for one it created itself)."""
        def fail_second_record(ctx):
            if ctx[1] == 1:
                raise errors.NoSpace("injected at apply")

        async def main():
            async with serving() as (server, volumes):
                async with await connect(server) as cli:
                    tok = await cli.open_session("acme")
                    await cli.call("mkdir", session=tok, path="/d")
                    await cli.write_file(tok, "/d/f", b"v0v0v0")
                    if verified_before:
                        await cli.call("release", session=tok)
                    await cli.write_file(tok, "/d/f", b"v1")   # acknowledged
                    await self.stage(cli, tok, ("pwrite", "/d/f", b"v2v2"),
                                     ("create", "/d/new", None))
                    failpoints.install("tx.apply_op", fail_second_record)
                    try:
                        with pytest.raises(errors.TxAborted,
                                           match="rolled back.*injected") as ei:
                            await cli.call_retry("tx_commit", session=tok)
                        # Typed on the wire, and handed to the caller: the
                        # transaction is what can be retried, not the frame.
                        assert ei.value.retryable and ei.value.code == 221
                    finally:
                        failpoints.remove("tx.apply_op")
                    assert await cli.read_file(tok, "/d/f") == b"v1v0v0"
                    assert not (await cli.call("exists", session=tok,
                                               path="/d/new"))["exists"]
                    # The rebuilt transaction goes through.
                    await self.stage(cli, tok, ("pwrite", "/d/f", b"v2v2"),
                                     ("create", "/d/new", None))
                    assert (await cli.call("tx_commit",
                                           session=tok))["ops"] == 2
                    assert await cli.read_file(tok, "/d/f") == b"v2v2v0"
                await server.drain()
                assert_settled(volumes["acme"])
        run(main())


def test_idle_tick_releases_holdings_but_keeps_the_session():
    async def main():
        obs.enable()
        cfg = ServerConfig(evict_interval=0.01, lease_seconds=60)
        async with serving(config=cfg) as (server, volumes):
            kernel = volumes["acme"].kernel
            async with await connect(server) as cli:
                tok = await cli.open_session("acme")
                fs = server.sessions.lookup(tok).session.fs
                visits = []
                release_all = fs.release_all
                fs.release_all = lambda: (visits.append(1), release_all())[1]

                async def quiet_until_released():
                    for _ in range(400):
                        if not kernel.acquisitions:
                            return
                        await asyncio.sleep(0.005)
                    raise AssertionError("holdings outlived the idle tick")

                await cli.write_file(tok, "/quiet.dat", b"q" * 100)
                assert kernel.acquisitions
                await quiet_until_released()
                # Many more ticks pass; a session that ran nothing since
                # its last release is not visited again.
                await asyncio.sleep(0.1)
                assert len(visits) == 1
                assert len(server.sessions) == 1
                # The token outlived its holdings; new work is held again.
                assert await cli.read_file(tok, "/quiet.dat") == b"q" * 100
                await quiet_until_released()
                await asyncio.sleep(0.05)
                assert len(visits) == 2
                assert obs.metrics.counter_total("server.idle_releases") == 2
                assert obs.metrics.counter_total("server.evictions") == 0
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_a_release_that_fails_does_not_take_the_reaper_with_it():
    async def main():
        obs.enable()
        cfg = ServerConfig(evict_interval=0.01, lease_seconds=60)
        async with serving(config=cfg) as (server, volumes):
            kernel = volumes["acme"].kernel

            def fault(_ino):
                raise errors.SimulatedFault("injected before unmap")

            async with await connect(server) as cli:
                tok = await cli.open_session("acme")
                failpoints.once("release.pre_unmap", fault)
                try:
                    await cli.write_file(tok, "/quiet.dat", b"q" * 100)
                    for _ in range(400):  # the tick after the faulted one
                        if not kernel.acquisitions:
                            break
                        await asyncio.sleep(0.005)
                finally:
                    failpoints.remove("release.pre_unmap")
                assert not kernel.acquisitions
                assert not server._evictor.done()
                assert obs.metrics.counter_total("server.deferred_errors") == 1
                # The holder is told, once; its token and its data are fine.
                with pytest.raises(errors.ServerError,
                                   match="injected before unmap"):
                    await cli.call("stat", session=tok, path="/")
                assert await cli.read_file(tok, "/quiet.dat") == b"q" * 100
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())


def test_owner_outside_the_server_is_retryable_not_recalled():
    async def main():
        async with serving() as (server, volumes):
            outsider = volumes["acme"].session("outsider")
            assert outsider.stat("/").ino == 0  # holds the root
            async with await connect(server) as cli:
                tok = await cli.open_session("acme")
                with pytest.raises(errors.TryAgain) as ei:
                    await asyncio.wait_for(
                        cli.call("stat", session=tok, path="/"), timeout=5)
                assert ei.value.retryable
                assert "owned by outsider" in str(ei.value)
                assert server.stats()["tenants"]["acme"]["recalls"] == 0
                outsider.release_all()
                assert (await cli.call("stat", session=tok,
                                       path="/"))["ino"] == 0
            outsider.close()
            await server.drain()
            assert_settled(volumes["acme"])
    run(main())
