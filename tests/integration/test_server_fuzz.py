"""Hostile wire parameters and hostile bytes end typed, never in the
``internal error`` fallback, a bare exception or a hang.

A fuzz over the whole wire surface, derived from the op table
(:mod:`repro.ops`): every method and ``session.open``, every parameter each
one reads, a fixed list of values no honest client sends.  One parameter is
bad per request and the rest are valid, so the request gets as far as that
parameter can carry it.  The only acceptable outcomes are success or a typed
error the op's row declares; afterwards the connection still answers, a
second session's ``stat /`` succeeds without a retry, and the drained
volume is fsck-clean with nothing left owned.

Before the boundary validated them, ``mode`` reached ``struct.pack``
mid-create (after the inode slot was taken), a bad ``uid`` surfaced on the
first create after ``session.open``, and a non-string ``data`` died inside
``unpack_bytes`` — each as ``ServerError: internal error: …``.

The second half is the same question asked of the *frames*: a valid request
sequence answers the same however the stream is cut, and arbitrary bytes on
a live connection cost error replies or a hang-up — never more buffered
than one frame, never the server.
"""

import asyncio
import random
import struct

import pytest

from repro import errors, obs, ops
from repro.server import ServerClient, ServerConfig, VolumeServer, make_volumes, protocol
from repro.server.dispatch import SESSION_OPS
from tests.integration.test_server import raw_connection
from tests.unit.test_server_protocol import framed

pytestmark = pytest.mark.timeout(60)

HOSTILE = ["abc", None, [1], {"a": 1}, -5, 1.5, True, 1 << 70, "", "/x\x00y",
           "!!", 1 << 62]  # the last one is a legal off_t no volume can back

DATA = protocol.pack_bytes(b"payload")

#: A valid value of each parameter type: ``fd`` is replaced by a live
#: descriptor per request, a mode is its row's default, a path is ``/f``
#: (a file with content) unless the op needs another (``new``: rename's).
VALID = {ops.FD: None, ops.OFF_T: 4, ops.BYTES: DATA, ops.FLAG: True}
PATHS = {"creat": "/new", "create": "/new", "mkdir": "/newdir",
         "makedirs": "/a/b", "readdir": "/", "rmdir": "/d", "new": "/g"}

#: The cases the hand-written parameter lists covered.
CASES_BEFORE_THE_TABLE = 936


def request_params(method, subop=None):
    """A valid request; a ``tx_op`` carries every sub-op's params, so each
    one is reached with the rest of the request valid."""
    rows = [ops.METHODS[method]] if method != "tx_op" \
        else [*ops.TX_OPS.values(), ops.TX_OPS[subop]]
    params = {p.name: PATHS.get(p.name if p.name != "path" else row.name, "/f")
              if p.type == ops.PATH else VALID.get(p.type, p.default)
              for row in rows for p in row.params}
    return params if subop is None else {**params, "op": subop}


def cases(method):
    """``(subop, bad param, hostile value)``: every parameter ``method``
    reads × every hostile value, for each sub-op of ``tx_op``."""
    subops = list(ops.TX_OPS) if method == "tx_op" else [None]
    return [(subop, bad, value) for bad in request_params(method, subops[0])
            for value in HOSTILE
            for subop in (subops[:1] if bad == "op" else subops)]


def declared(method, params):
    """The typed errors a request may end in, by the op table: its
    method's, and a ``tx_op``'s sub-op's."""
    subop = params.get("op") if method == "tx_op" else None
    row = ops.TX_OPS.get(subop) if isinstance(subop, str) else None
    return ops.METHODS[method].errors | (row.errors if row else set())


def test_table_covers_the_whole_wire_surface():
    assert set(ops.METHODS) == set(SESSION_OPS)
    assert sum(map(len, map(cases, ops.METHODS))) >= CASES_BEFORE_THE_TABLE


def is_fallback(outcome) -> bool:
    return isinstance(outcome, errors.ServerError) \
        and "internal error" in str(outcome)


class Victim:
    """The session the hostile requests go through.  Its tree is rebuilt
    before every request so each bad parameter meets the same valid rest."""

    def __init__(self, cli, token):
        self.cli, self.token = cli, token
        self.fallbacks, self.undeclared = [], []

    async def call(self, method, **params):
        """The typed outcome of one request: its result, or the error,
        which must be one the op table declares."""
        try:
            return await self.cli.call(method, session=self.token, **params)
        except errors.ReproError as exc:
            if is_fallback(exc):
                self.fallbacks.append((method, params, str(exc)))
            elif type(exc) not in declared(method, params):
                self.undeclared.append((method, params, repr(exc)))
            return exc

    async def reset(self):
        """``/f`` (a file with content) and ``/d`` (an empty directory)
        exist, nothing else the table names does, no transaction is open."""
        await self.call("tx_abort")
        for path in ("/new", "/g"):
            await self.call("unlink", path=path)
        for path in ("/newdir", "/a/b", "/a"):
            await self.call("rmdir", path=path)
        await self.call("mkdir", path="/d")
        done = await self.call("write_file", path="/f", data=DATA)
        assert done == {"written": 7}, done

    async def request(self, method, bad=None, value=None, subop=None):
        await self.reset()
        params = request_params(method, subop)
        if "fd" in params:
            params["fd"] = fd = (await self.call("open", path="/f"))["fd"]
        if method in ("tx_op", "tx_commit", "tx_abort"):
            await self.call("tx_begin")
        if bad is not None:
            params[bad] = value
        outcome = await self.call(method, **params)
        if method == "tx_op" and not isinstance(outcome, errors.ReproError):
            # Staging only buffers: what it let through meets LibFS here.
            await self.call("tx_commit")
        if "fd" in params and method != "close":
            await self.call("close", fd=fd)
        return outcome

    async def fuzz(self, method):
        """Every case of ``method``, after its valid rows."""
        for subop in (ops.TX_OPS if method == "tx_op" else (None,)):
            good = await self.request(method, subop=subop)
            # The valid row works, so a rejection is about the one bad value.
            assert not isinstance(good, errors.ReproError), (method, subop, good)
        for subop, bad, value in cases(method):
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


@pytest.mark.parametrize("method", sorted(ops.METHODS) + ["session.open"])
def test_hostile_params_end_typed(method):
    async def main():
        volumes = make_volumes(["acme"], size=16 << 20, inode_count=512)
        obs.enable()
        try:
            async with VolumeServer(volumes) as server:
                async with await ServerClient.connect("127.0.0.1", server.port) as cli:
                    victim = Victim(cli, await cli.open_session("acme"))
                    bystander = await cli.open_session("acme")
                    if method == "session.open":
                        await fuzz_session_open(server, cli, victim)
                    else:
                        await victim.fuzz(method)
                    assert victim.fallbacks == victim.undeclared == []
                    # The connection survived, and nothing the victim was
                    # refused half-way through is in anybody's way.
                    assert await cli.ping()
                    st = await cli.call("stat", session=bystander, path="/")
                    assert st["ino"] == 0
                    assert obs.metrics.counter_total("client.retries") == 0
                await server.drain()
            assert not volumes["acme"].kernel.acquisitions
            report = volumes["acme"].fsck()
            assert report.clean, report.summary()
        finally:
            for vol in volumes.values():
                vol.close()

    asyncio.run(asyncio.wait_for(main(), timeout=50))


# --------------------------------------------------------------------------- #
# Frames: chunking invariance and arbitrary bytes
# --------------------------------------------------------------------------- #


def request_stream() -> bytes:
    """A session's worth of valid requests (the first session a fresh
    server opens for ``acme`` is ``acme-1``), with a payload no line format
    survives, one header that is not JSON and one unknown method."""
    blob = b"cut\nme\x00anywhere\xff" * 40

    def op(i, method, **params):
        return protocol.encode_frame({"id": i, "method": method,
                                      "session": "acme-1", "params": params})

    return b"".join([
        protocol.encode_frame({"id": 1, "method": "ping"}),
        protocol.encode_frame({"id": 2, "method": "session.open",
                               "tenant": "acme"}),
        op(3, "mkdir", path="/d"),
        op(4, "write_file", path="/d/f", data=blob),
        framed(b"{not json", b"\x00" * 9),
        op(5, "read_file", path="/d/f"),
        op(6, "stat", path="/d/f"),
        op(7, "open", path="/d/f"),
        op(8, "pwrite", fd=3, offset=5, data=b""),
        op(9, "pread", fd=3, n=64, offset=0),
        op(10, "tx_begin"),
        op(11, "tx_op", op="pwrite", path="/d/f", offset=1, data=b"\n\n"),
        op(12, "tx_commit"),
        op(13, "stat", path="/missing"),
        op(14, "fs.format"),
        op(15, "readdir", path="/d"),
        op(16, "release"),
    ])


async def replies_to(chunks, reads) -> dict:
    """Feed ``chunks`` to a fresh server, each only once the one before it
    has been read, and collect the 17 replies by id."""
    volumes = make_volumes(["acme"], size=16 << 20, inode_count=256)
    try:
        async with VolumeServer(volumes) as server:
            raw = await raw_connection(server)
            start, sent = len(reads), 0
            for chunk in chunks:
                await raw.send(chunk)
                sent += len(chunk)
                while sum(n for n, _ in reads[start:]) < sent:
                    await asyncio.sleep(0)
            got = [await asyncio.wait_for(raw.recv(), 5) for _ in range(17)]
            await raw.close()
            await server.drain()
        assert not volumes["acme"].kernel.acquisitions
        assert volumes["acme"].fsck().clean
    finally:
        for vol in volumes.values():
            vol.close()
    by_id = {r["id"]: r for r in got}
    assert len(by_id) == 17, got
    assert by_id[10]["result"].pop("txid") > 0  # a process-wide counter
    return by_id


def test_replies_do_not_depend_on_how_the_stream_is_cut(server_reads):
    reads = server_reads
    stream = request_stream()

    async def main():
        whole = await replies_to([stream], reads)
        assert whole[None]["error"]["type"] == "ProtocolError"
        assert whole[5]["result"]["data"][:4] == b"cut\n"
        assert whole[12]["result"]["ops"] == 1
        assert whole[13]["error"]["type"] == "NoEntry"
        rng = random.Random(20)
        cuts = [[stream[i:i + 1] for i in range(len(stream))]]  # every byte
        for _ in range(3):
            at = sorted(rng.sample(range(1, len(stream)), 12))
            cuts.append([stream[a:b] for a, b in
                         zip([0] + at, at + [len(stream)])])
        for chunks in cuts:
            start = len(reads)
            assert await replies_to(chunks, reads) == whole
            assert len(reads) - start >= len(chunks)  # the cuts were seen

    asyncio.run(asyncio.wait_for(main(), timeout=50))


def hostile_streams(rng, max_frame):
    ping = protocol.encode_frame({"id": 1, "method": "ping"})
    stat = protocol.encode_frame({"id": 2, "method": "stat", "session": "acme-1",
                                  "params": {"path": "/"}})
    yield rng.randbytes(64)
    yield struct.pack("<II", max_frame, max_frame)
    yield struct.pack("<II", 0, 0) * 50                 # fifty empty headers
    yield struct.pack("<II", 3, 1 << 31) + b"{}"
    yield ping + stat[:-3]                              # then silence
    yield ping + framed(b"\xff" * 40, b"\n" * 40) + ping
    yield framed(b'{"id":5,"method":"ping","bin":"params"}', b"x")
    yield framed(b'{"id":6,"bin":"result","result":{}}', b"reply?")
    yield framed(b"[" * (max_frame - 64))                # deepest legal header
    for _ in range(40):
        good = bytearray(ping + stat + ping)
        for _ in range(rng.randrange(1, 4)):
            good[rng.randrange(len(good))] = rng.randrange(256)
        yield bytes(good)
    for _ in range(20):
        yield rng.randbytes(rng.randrange(1, 400))


def test_arbitrary_bytes_cost_replies_or_a_hangup(server_reads):
    max_frame = 4096

    async def converse(server, blob):
        """Everything the server says to ``blob`` until it hangs up or has
        been silent for a moment (a frame cut short: it is waiting)."""
        raw = await raw_connection(server)
        await raw.send(blob)
        try:
            while True:
                reply = await asyncio.wait_for(raw.recv(), timeout=0.05)
                if reply is None:
                    return
                assert set(reply) == {"id", "result"} or (
                    set(reply) == {"id", "error"}
                    and reply["error"]["type"] in protocol._ERROR_TYPES
                    and "internal error" not in reply["error"]["message"]), \
                    (blob, reply)
        except asyncio.TimeoutError:
            pass
        finally:
            await raw.close()

    async def main():
        volumes = make_volumes(["acme"], size=16 << 20, inode_count=256)
        try:
            config = ServerConfig(max_frame=max_frame)
            async with VolumeServer(volumes, config) as server:
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    assert await cli.open_session("acme") == "acme-1"
                    for blob in hostile_streams(random.Random(20), max_frame):
                        await converse(server, blob)
                    assert await cli.ping()
                fresh = await raw_connection(server)
                assert await fresh.ask(protocol.encode_frame(
                    {"id": 9, "method": "ping"})) \
                    == {"id": 9, "result": {"pong": True}}
                await fresh.close()
                for _ in range(100):
                    if not server._conns:
                        break
                    await asyncio.sleep(0.01)
                assert not server._conns
                await server.drain()
            assert max(left for _, left in server_reads) < max_frame
            assert not volumes["acme"].kernel.acquisitions
            report = volumes["acme"].fsck()
            assert report.clean, report.summary()
        finally:
            for vol in volumes.values():
                vol.close()

    asyncio.run(asyncio.wait_for(main(), timeout=50))
