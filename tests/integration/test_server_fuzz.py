"""Hostile wire parameters end typed, never in the ``internal error`` fallback.

A table-driven fuzz over the whole wire surface: every ``SESSION_OPS``
entry and ``session.open``, every parameter each one reads, a fixed list of
values no honest client sends.  One parameter is bad per request and the
rest are valid, so the request gets as far as that parameter can carry it.
The only acceptable outcomes are success or a typed error; afterwards the
connection still answers, a second session's ``stat /`` succeeds without a
retry, and the drained volume is fsck-clean with nothing left owned.

Before the boundary validated them, ``mode`` reached ``struct.pack``
mid-create (after the inode slot was taken), a bad ``uid`` surfaced on the
first create after ``session.open``, and a non-string ``data`` died inside
``unpack_bytes`` — each as ``ServerError: internal error: …``.
"""

import asyncio

import pytest

from repro import errors, obs
from repro.server import ServerClient, VolumeServer, make_volumes, protocol
from repro.server.dispatch import SESSION_OPS

pytestmark = pytest.mark.timeout(60)

HOSTILE = ["abc", None, [1], {"a": 1}, -5, 1.5, True, 1 << 70, "", "/x\x00y",
           "!!", 1 << 62]  # the last one is a legal off_t no volume can back

DATA = protocol.pack_bytes(b"payload")

#: method → a valid value for every parameter it reads (``fd`` is replaced
#: by a live descriptor per request).
PARAMS = {
    "open": {"path": "/f", "create": True, "mode": 0o664},
    "creat": {"path": "/new", "mode": 0o664},
    "close": {"fd": None},
    "mkdir": {"path": "/newdir", "mode": 0o775},
    "makedirs": {"path": "/a/b"},
    "pread": {"fd": None, "n": 8, "offset": 0},
    "pwrite": {"fd": None, "data": DATA, "offset": 0},
    "read_file": {"path": "/f"},
    "write_file": {"path": "/f", "data": DATA},
    "rename": {"old": "/f", "new": "/g"},
    "stat": {"path": "/f"},
    "readdir": {"path": "/"},
    "exists": {"path": "/f"},
    "unlink": {"path": "/f"},
    "rmdir": {"path": "/d"},
    "truncate": {"path": "/f", "size": 10},
    "fsync": {"fd": None},
    "release": {},
    "tx_begin": {},
    "tx_op": {"op": "create", "path": "/t", "mode": 0o664, "data": DATA,
              "offset": 0, "size": 4, "old": "/f", "new": "/g"},
    "tx_commit": {},
    "tx_abort": {},
}

#: ``tx_op``'s sub-ops and a path each accepts, so every parameter of every
#: sub-op is reached with the rest of the request valid.
TX_OPS = {"create": "/t", "mkdir": "/t", "pwrite": "/f", "write_file": "/f",
          "truncate": "/f", "rename": "/f", "unlink": "/f"}


def test_table_covers_the_whole_wire_surface():
    assert set(PARAMS) == set(SESSION_OPS)


def is_fallback(outcome) -> bool:
    return isinstance(outcome, errors.ServerError) \
        and "internal error" in str(outcome)


class Victim:
    """The session the hostile requests go through.  Its tree is rebuilt
    before every request so each bad parameter meets the same valid rest."""

    def __init__(self, cli, token):
        self.cli, self.token = cli, token
        self.fallbacks = []

    async def call(self, method, **params):
        """The typed outcome of one request: its result, or the error."""
        try:
            return await self.cli.call(method, session=self.token, **params)
        except errors.ReproError as exc:
            return exc

    async def reset(self):
        """``/f`` (a file with content) and ``/d`` (an empty directory)
        exist, nothing else the table names does, no transaction is open."""
        await self.call("tx_abort")
        for path in ("/new", "/g", "/t"):
            await self.call("unlink", path=path)
        for path in ("/newdir", "/t", "/a/b", "/a"):
            await self.call("rmdir", path=path)
        await self.call("mkdir", path="/d")
        done = await self.call("write_file", path="/f", data=DATA)
        assert done == {"written": 7}, done

    async def request(self, method, bad=None, value=None, subop=None):
        await self.reset()
        params = dict(PARAMS[method])
        if "fd" in params:
            params["fd"] = fd = (await self.call("open", path="/f"))["fd"]
        if method in ("tx_op", "tx_commit", "tx_abort"):
            await self.call("tx_begin")
        if subop is not None:
            params.update(op=subop, path=TX_OPS[subop])
        if bad is not None:
            params[bad] = value
        outcome = await self.call(method, **params)
        outcomes = [outcome]
        if method == "tx_op" and not isinstance(outcome, errors.ReproError):
            # Staging only buffers: what it let through meets LibFS here.
            outcomes.append(await self.call("tx_commit"))
        for got in outcomes:
            if is_fallback(got):
                self.fallbacks.append((method, subop, bad, value, str(got)))
        if "fd" in params and method != "close":
            await self.call("close", fd=fd)
        return outcome

    async def fuzz(self, method):
        """Every parameter of ``method`` × every hostile value."""
        subops = TX_OPS if method == "tx_op" else (None,)
        for subop in subops:
            good = await self.request(method, subop=subop)
            # The valid row works, so a rejection is about the one bad value.
            assert not isinstance(good, errors.ReproError), (method, subop,
                                                             good)
        for bad in PARAMS[method]:
            for value in HOSTILE:
                for subop in (subops if bad != "op" else (None,)):
                    await self.request(method, bad, value, subop)


async def fuzz_session_open(server, cli, victim):
    """A bad ``uid`` is refused before the slot is taken; a session that
    does open can create (the uid is what the inode record packs)."""
    before = len(server.sessions)
    for key in ("uid", "no-such-param"):
        for value in HOSTILE:
            try:
                token = await cli.open_session("acme", **{key: value})
            except errors.ReproError as exc:
                if is_fallback(exc):
                    victim.fallbacks.append(("session.open", key, value, exc))
                assert key == "uid", (key, value, exc)
                continue
            opened = Victim(cli, token)
            made = await opened.call("creat", path="/by-new-session")
            assert not isinstance(made, errors.ReproError), (key, value, made)
            await opened.call("unlink", path="/by-new-session")
            assert await cli.close_session(token)
    assert len(server.sessions) == before
    assert server.admission.tenants["acme"].sessions == before


@pytest.mark.parametrize("method", sorted(PARAMS) + ["session.open"])
def test_hostile_params_end_typed(method):
    async def main():
        volumes = make_volumes(["acme"], size=16 << 20, inode_count=512)
        obs.enable()
        try:
            async with VolumeServer(volumes) as server:
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    victim = Victim(cli, await cli.open_session("acme"))
                    bystander = await cli.open_session("acme")
                    if method == "session.open":
                        await fuzz_session_open(server, cli, victim)
                    else:
                        await victim.fuzz(method)
                    assert victim.fallbacks == []
                    # The connection survived, and nothing the victim was
                    # refused half-way through is in anybody's way.
                    assert await cli.ping()
                    st = await cli.call("stat", session=bystander, path="/")
                    assert st["ino"] == 0
                    assert obs.metrics.counter_total("client.retries") == 0
                await server.drain()
            kernel = volumes["acme"].kernel
            assert not kernel.acquisitions
            report = volumes["acme"].fsck()
            assert report.clean, report.summary()
        finally:
            for vol in volumes.values():
                vol.close()

    asyncio.run(asyncio.wait_for(main(), timeout=50))
