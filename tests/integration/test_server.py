"""End-to-end tests for the multi-tenant volume server.

Each test spins a real :class:`~repro.server.VolumeServer` on an ephemeral
localhost port inside ``asyncio.run`` (the test process has no ambient
event loop — no pytest-asyncio dependency) and talks to it over TCP.

Covered failure modes, per the serving contract:

* malformed and oversized frames, at either end of the connection;
* a peer that pipelines without reading its replies;
* a connection answered in request order, control and data ops alike;
* a client that writes and vanishes without reading the reply;
* eviction of an idle session that still holds its inodes;
* drain behind a pipelined burst (everything read before it is answered);
* backpressure: a burst past the tenant's per-read bound is refused with
  typed, retryable :class:`~repro.errors.Overloaded`;
* a closed-loop fleet: every op completes, nothing is lost or answered
  twice, and the drained volumes are fsck-clean.
"""

import asyncio
import collections
import contextlib
import struct

import pytest

from repro import errors, obs
from repro.api import Volume
from repro.server import (
    LoadConfig,
    ServerClient,
    ServerConfig,
    TenantPolicy,
    VolumeServer,
    make_volumes,
    run_load,
)
from repro.server import protocol
from repro.server.dispatch import SESSION_OPS
from tests.unit.test_server_protocol import framed

pytestmark = pytest.mark.timeout(60)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


@contextlib.asynccontextmanager
async def serving(tenants=("acme",), config=None, *, policies=None):
    """A started server over fresh volumes; closes both on exit."""
    volumes = make_volumes(tenants, size=16 * 1024 * 1024, inode_count=512)
    server = VolumeServer(volumes, config or ServerConfig(),
                          policies=policies)
    try:
        async with server:
            yield server, volumes
    finally:
        for vol in volumes.values():
            vol.close()


class RawConnection:
    """A socket with no ``ServerClient`` behind it: the test writes whatever
    bytes it likes and reads whole reply frames."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._splitter = protocol.FrameSplitter()
        self._frames = collections.deque()

    async def send(self, payload: bytes) -> None:
        self.writer.write(payload)
        await self.writer.drain()

    async def recv(self):
        """The next reply, decoded; None once the server has hung up."""
        while not self._frames:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                return None
            self._frames.extend(self._splitter.feed(chunk))
        return protocol.decode_frame(self._frames.popleft())

    async def ask(self, payload: bytes):
        await self.send(payload)
        resp = await self.recv()
        assert resp is not None, "server hung up without answering"
        return resp

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def raw_connection(server) -> RawConnection:
    return RawConnection(
        *await asyncio.open_connection("127.0.0.1", server.port))


class TestBasicServing:
    def test_mixed_ops_roundtrip(self):
        async def main():
            async with serving(("acme", "initech")) as (server, volumes):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    assert await cli.ping()
                    tok_a = await cli.open_session("acme")
                    tok_b = await cli.open_session("initech")
                    # Tenants land on their own volumes.
                    await cli.call("makedirs", session=tok_a, path="/a/b")
                    assert await cli.write_file(
                        tok_a, "/a/b/f.dat", b"hello acme") == 10
                    assert await cli.read_file(
                        tok_a, "/a/b/f.dat") == b"hello acme"
                    await cli.write_file(tok_b, "/only-initech", b"x")
                    with pytest.raises(errors.NoEntry):
                        await cli.read_file(tok_a, "/only-initech")
                    st = await cli.call("stat", session=tok_a,
                                        path="/a/b/f.dat")
                    assert st["size"] == 10
                    names = (await cli.call("readdir", session=tok_a,
                                            path="/a/b"))["names"]
                    assert names == ["f.dat"]
                    await cli.rename(tok_a, "/a/b/f.dat", "/a/b/g.dat")
                    assert await cli.close_session(tok_a)
                    assert await cli.close_session(tok_b)
                    # Idempotent: closing a gone token still succeeds.
                    assert await cli.close_session(tok_a) is False
                await server.drain()
                for vol in volumes.values():
                    report = vol.fsck()
                    assert report.clean, report.summary()
        run(main())

    def test_a_connection_is_answered_in_request_order(self):
        # Control ops used to overtake the data op queued ahead of them:
        # ``3, 4, 5, 2``, ``stats`` counting the write as queued, and
        # ``closed: false`` for a session then closed behind the client.
        async def main():
            async with serving() as (server, volumes):
                raw = await raw_connection(server)
                opened = await raw.ask(protocol.encode_frame(
                    {"id": 1, "method": "session.open", "tenant": "acme"}))
                token = opened["result"]["session"]
                await raw.send(b"".join(map(protocol.encode_frame, (
                    {"id": 2, "method": "write_file", "session": token,
                     "params": {"path": "/a", "data": b"in order"}},
                    {"id": 3, "method": "stats"},
                    {"id": 4, "method": "session.close", "session": token},
                    {"id": 5, "method": "ping"}))))
                got = [await raw.recv() for _ in range(4)]
                assert [r["id"] for r in got] == [2, 3, 4, 5]
                assert got[0]["result"] == {"written": 8}
                assert got[1]["result"]["tenants"]["acme"]["sessions"] == 1
                assert got[2]["result"] == {"closed": True}
                assert len(server.sessions) == 0
                await raw.close()
                await server.drain()
                vol = volumes["acme"]
                assert vol.fsck().clean
                with vol.session("after") as s:
                    assert s.read_file("/a") == b"in order"
        run(main())

    def test_unknown_method_and_tenant_are_typed(self):
        async def main():
            async with serving() as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    with pytest.raises(errors.ProtocolError):
                        await cli.call("fs.format")  # not in the op table
                    with pytest.raises(errors.TenantLimit):
                        await cli.open_session("nobody")
                    with pytest.raises(errors.SessionGone):
                        await cli.call("stat", session="acme-ff", path="/")
        run(main())

    def test_session_cap_and_release(self):
        async def main():
            pol = {"acme": TenantPolicy(max_sessions=2)}
            async with serving(policies=pol) as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    t1 = await cli.open_session("acme")
                    await cli.open_session("acme")
                    with pytest.raises(errors.TenantLimit) as ei:
                        await cli.open_session("acme")
                    assert ei.value.retryable
                    await cli.close_session(t1)
                    await cli.open_session("acme")  # slot freed
        run(main())


class TestProtocolRobustness:
    def test_malformed_frame_answered_and_connection_survives(self):
        async def main():
            async with serving() as (server, _):
                raw = await raw_connection(server)
                try:
                    resp = await raw.ask(framed(b"{broken json"))
                    assert resp["id"] is None
                    assert resp["error"]["type"] == "ProtocolError"
                    # The prefix was good, so the server knows where the
                    # next frame starts: the connection works.
                    resp = await raw.ask(
                        protocol.encode_frame({"id": 2, "method": "ping"}))
                    assert resp == {"id": 2, "result": {"pong": True}}
                    # Non-object headers and missing methods answer too,
                    # and so does a payload no object in the header owns.
                    resp = await raw.ask(framed(b"[1,2,3]"))
                    assert resp["error"]["type"] == "ProtocolError"
                    resp = await raw.ask(framed(b'{"id": 9}'))
                    assert resp["id"] == 9
                    assert resp["error"]["type"] == "ProtocolError"
                    resp = await raw.ask(
                        framed(b'{"id": 10, "method": "ping"}', b"stray"))
                    assert resp["error"]["type"] == "ProtocolError"
                    assert await raw.ask(protocol.encode_frame(
                        {"id": 11, "method": "ping"})) \
                        == {"id": 11, "result": {"pong": True}}
                finally:
                    await raw.close()
        run(main())

    def test_oversized_frame_rejected_then_disconnected(self):
        async def main():
            cfg = ServerConfig(max_frame=512)
            async with serving(config=cfg) as (server, _):
                big = protocol.encode_frame(
                    {"id": 1, "method": "ping",
                     "params": {"pad": "x" * 2048}})
                # The second peer sends the eight bytes of a prefix and
                # nothing else: the refusal needs no more than that.
                for hostile in (big, struct.pack("<II", 1 << 30, 1 << 30)):
                    raw = await raw_connection(server)
                    try:
                        resp = await raw.ask(hostile)
                        assert resp["id"] is None
                        assert resp["error"]["type"] == "ProtocolError"
                        assert "exceeds" in resp["error"]["message"]
                        # Unrecoverable framing: the server hangs up after.
                        assert await raw.recv() is None
                    finally:
                        await raw.close()
                assert not server._conns
        run(main())


class TestClientFrameBound:
    """The client's frame bound is the server's: ``MAX_FRAME_BYTES``."""

    def test_half_megabyte_file_roundtrips(self):
        # The client's stream reader used to stop at 64 KiB lines: the
        # read failed, its reader task died and the next call never
        # returned.
        async def main():
            blob = bytes(range(256)) * 2048
            async with serving() as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    tok = await cli.open_session("acme")
                    assert await cli.write_file(tok, "/big", blob) == len(blob)
                    got = await asyncio.wait_for(
                        cli.read_file(tok, "/big"), timeout=10)
                    assert got == blob
                    st = await asyncio.wait_for(
                        cli.call("stat", session=tok, path="/big"), timeout=10)
                    assert st["size"] == len(blob)
        run(main())

    def test_reply_over_the_bound_fails_every_caller_typed(self):
        async def forge(reader, writer):
            await reader.read(64)  # a request arrived; answer with a lie
            writer.write(struct.pack("<II", 1 << 30, 0) + b"{}")
            await writer.drain()
            await reader.read()  # until the client hangs up on us
            writer.close()

        async def main():
            liar = await asyncio.start_server(forge, "127.0.0.1", 0)
            port = liar.sockets[0].getsockname()[1]
            async with liar:
                cli = await ServerClient.connect("127.0.0.1", port)
                calls = [asyncio.ensure_future(cli.call("ping"))
                         for _ in range(3)]
                done = await asyncio.wait_for(
                    asyncio.gather(*calls, return_exceptions=True), timeout=5)
                assert [type(exc) for exc in done] \
                    == [errors.ProtocolError] * 3, done
                assert not cli._pending
                for _ in range(2):  # at once, every time: never a hang
                    with pytest.raises(errors.ServerError):
                        await asyncio.wait_for(cli.call("ping"), timeout=1)
                await cli.close()
        run(main())

    def test_oversized_request_is_refused_locally_siblings_untouched(self):
        # It used to go out: the server answered once and hung up, which
        # failed every other session's pending call on the connection and
        # left the next call a bare ConnectionResetError.
        async def main():
            async with serving() as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    big, sibling = [await cli.open_session("acme")
                                    for _ in range(2)]
                    sent = cli.sent
                    stat = asyncio.ensure_future(
                        cli.call("stat", session=sibling, path="/"))
                    with pytest.raises(errors.ProtocolError, match="exceeds"):
                        await cli.call(
                            "write_file", session=big, path="/huge",
                            data=bytes(protocol.MAX_FRAME_BYTES))
                    assert (await asyncio.wait_for(stat, 5))["ino"] == 0
                    assert cli.sent == sent + 1 and not cli._pending
                    # The connection, and the refused session, still work.
                    assert await cli.write_file(big, "/fits", b"x" * 4096) \
                        == 4096
                    assert len(server._conns) == 1
        run(main())

    def test_call_on_a_lost_connection_is_typed(self):
        async def main():
            async with serving() as (server, _):
                cli = await ServerClient.connect("127.0.0.1", server.port)
                assert await cli.ping()
                for conn in list(server._conns.values()):
                    conn.transport.abort()
                for _ in range(100):
                    if cli._lost is not None:
                        break
                    await asyncio.sleep(0.01)
                with pytest.raises(errors.ServerError):
                    await asyncio.wait_for(cli.ping(), timeout=1)
                await cli.close()
        run(main())


class TestSlowReader:
    """Nothing that runs an op waits on a peer."""

    FILE = 512 * 1024

    def test_peer_that_never_reads_stops_only_itself(self):
        # Four workers used to park in ``writer.drain()`` behind this peer
        # and starve its whole tenant.
        async def main():
            async with serving() as (server, _):
                policy = server.config.policy
                burst = policy.max_burst
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    tok = await cli.open_session("acme")
                    await cli.write_file(tok, "/big", b"\xa5" * self.FILE)
                    slow = await raw_connection(server)
                    opened = await slow.ask(protocol.encode_frame(
                        {"id": 0, "method": "session.open",
                         "tenant": "acme"}))
                    mine = opened["result"]["session"]
                    conn = max(server._conns.values(), key=lambda c: c.id)

                    def reads(ids):
                        return b"".join(protocol.encode_frame(
                            {"id": i, "method": "read_file", "session": mine,
                             "params": {"path": "/big"}}) for i in ids)

                    await slow.send(reads(range(1, 61)))
                    for _ in range(500):
                        if conn.transport.get_write_buffer_size() > self.FILE:
                            break
                        await asyncio.sleep(0.01)
                    # It is no longer being read from, however much more
                    # it pipelines ...
                    assert not conn.transport.is_reading()
                    await slow.send(reads(range(61, 81)))
                    await asyncio.sleep(0.05)
                    # ... everybody else is served ...
                    st = await asyncio.wait_for(
                        cli.call("stat", session=tok, path="/big"), timeout=2)
                    assert st["size"] == self.FILE
                    # ... what is buffered for it is one admitted burst ...
                    limit = conn.transport.get_write_buffer_limits()[1]
                    assert conn.transport.get_write_buffer_size() \
                        <= limit + burst * (self.FILE + 256)
                    # ... and once it reads, every reply is there, once.
                    got = [await asyncio.wait_for(slow.recv(), timeout=10)
                           for _ in range(80)]
                    assert sorted(r["id"] for r in got) == list(range(1, 81))
                    assert all(r["result"]["n"] == self.FILE for r in got)
                    await slow.close()
        run(main())

    @pytest.mark.parametrize("max_burst", [2, TenantPolicy().max_burst])
    def test_one_burst_is_answered_once_per_frame(self, server_reads,
                                                  max_burst):
        reads = server_reads

        async def main():
            pol = {"acme": TenantPolicy(max_burst=max_burst)}
            async with serving(policies=pol) as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    tok = await cli.open_session("acme")
                    reads.clear()
                    # 1 000 calls started in one loop iteration: the server
                    # finds them in as few reads as the socket allows.
                    done = await asyncio.gather(*(
                        cli.call("stat", session=tok, path="/")
                        for _ in range(1000)), return_exceptions=True)
                    assert cli.sent == cli.received and cli.unmatched == 0
                    assert not cli._pending
                    answered = [r for r in done if isinstance(r, dict)]
                    refused = [r for r in done if not isinstance(r, dict)]
                    assert all(r["ino"] == 0 for r in answered)
                    assert all(isinstance(r, errors.Overloaded)
                               and r.retryable for r in refused), refused[:3]
                    # A read runs at most the tenant's bound before the
                    # loop runs again; the rest of it is refused, typed.
                    assert 0 < len(answered) <= len(reads) * max_burst
                    assert len(reads) < 10 and refused
                    # The bound is per read: the same op, on the next one,
                    # is admitted.
                    st = await cli.call("stat", session=tok, path="/")
                    assert st["ino"] == 0  # the root directory
        run(main())


class TestDisconnectMidOp:
    def test_client_vanishes_with_inflight_op(self, monkeypatch):
        async def main():
            cfg = ServerConfig(lease_seconds=60)
            async with serving(config=cfg) as (server, volumes):
                raw = await raw_connection(server)
                resp = await raw.ask(protocol.encode_frame(
                    {"id": 1, "method": "session.open", "tenant": "acme"}))
                token = resp["result"]["session"]
                conn = max(server._conns.values(), key=lambda c: c.id)
                write_file = SESSION_OPS["write_file"]

                def write_while_the_peer_resets(session, params):
                    # What asyncio does when the peer's RST arrives: by
                    # the time the op replies, the transport is closing.
                    try:
                        return write_file(session, params)
                    finally:
                        conn.transport.abort()

                monkeypatch.setitem(SESSION_OPS, "write_file",
                                    write_while_the_peer_resets)
                obs.reset()
                obs.enable()
                try:
                    # Write, and vanish without reading the reply.
                    await raw.send(protocol.encode_frame(
                        {"id": 2, "method": "write_file", "session": token,
                         "params": {"path": "/kept", "data": b"durable"}}))
                    await raw.close()
                    # The op ran; the undeliverable response is dropped and
                    # counted, the dead connection's session is reaped, and
                    # the server stays up.
                    for _ in range(100):
                        if len(server.sessions) == 0:
                            break
                        await asyncio.sleep(0.01)
                    assert obs.metrics.counter_total(
                        "server.responses_dropped") == 1
                finally:
                    obs.disable()
                    obs.reset()
                assert len(server.sessions) == 0
                assert server.admission.tenants["acme"].sessions == 0
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    assert await cli.ping()
                    with pytest.raises(errors.SessionGone):
                        await cli.call("stat", session=token, path="/")
                    fresh = await cli.open_session("acme")
                    assert await cli.read_file(fresh, "/kept") == b"durable"
                await server.drain()
                report = volumes["acme"].fsck()
                assert report.clean, report.summary()
        run(main())


class TestEviction:
    def test_idle_lease_eviction(self):
        async def main():
            # The session still holds what it wrote (retention) when the
            # reaper evicts it; teardown must release it, not leak it.
            cfg = ServerConfig(lease_seconds=0.05, evict_interval=0.01)
            async with serving(config=cfg) as (server, volumes):
                vol = volumes["acme"]
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    token = await cli.open_session("acme")
                    await cli.write_file(token, "/leased.dat", b"d" * 4096)
                    assert await cli.read_file(
                        token, "/leased.dat") == b"d" * 4096
                    # Go idle past the lease; the reaper evicts.
                    for _ in range(200):
                        if len(server.sessions) == 0:
                            break
                        await asyncio.sleep(0.01)
                    assert len(server.sessions) == 0
                    with pytest.raises(errors.SessionGone) as ei:
                        await cli.call("stat", session=token,
                                       path="/leased.dat")
                    assert ei.value.retryable
                    # A fresh session sees the data — nothing was lost or
                    # left owned by the evicted app.
                    token2 = await cli.open_session("acme")
                    assert await cli.read_file(
                        token2, "/leased.dat") == b"d" * 4096
                await server.drain()
                report = vol.fsck()
                assert report.clean, report.summary()
        run(main())


class TestDrain:
    def test_drain_behind_a_burst_answers_everything_read(self):
        blob = b"d" * (64 << 10)

        async def main():
            async with serving() as (server, volumes):
                cli = await ServerClient.connect("127.0.0.1", server.port)
                try:
                    token = await cli.open_session("acme")
                    # A burst several socket reads long; drain once the
                    # server has read some of it.
                    writes = [asyncio.ensure_future(cli.write_file(
                        token, f"/d{i:02}.dat", blob)) for i in range(32)]
                    assert await writes[0] == len(blob)
                    drain = asyncio.ensure_future(server.drain())
                    done = await asyncio.gather(
                        *writes, return_exceptions=True)
                    # An op runs in the read that brought it: what was read
                    # before the drain is answered, the rest of the burst
                    # is refused — typed, retryable — and nothing is lost.
                    landed = [i for i, r in enumerate(done) if r == len(blob)]
                    refused = [r for r in done if r != len(blob)]
                    assert landed and refused
                    assert all(isinstance(r, (errors.Overloaded,
                                              errors.SessionGone))
                               and r.retryable for r in refused), refused[:3]
                    with pytest.raises(errors.Overloaded) as ei:
                        await cli.open_session("acme")
                    assert ei.value.retryable
                finally:
                    await cli.close()
                await drain
                assert len(server.sessions) == 0
                vol = volumes["acme"]
                report = vol.fsck()
                assert report.clean, report.summary()
                # Acknowledged means durable: after a remount the files that
                # were answered are there, whole, and no others.
                again = Volume.mount(vol.device.durable_image())
                assert again.fsck().clean
                with again.session("post-drain") as s:
                    assert sorted(s.readdir("/")) == [
                        f"d{i:02}.dat" for i in landed]
                    assert all(s.read_file(f"/d{i:02}.dat") == blob
                               for i in landed)
        run(main())

    def test_drain_is_idempotent(self):
        async def main():
            async with serving() as (server, _):
                await server.drain()
                await server.drain()
                assert server.draining
        run(main())


class TestFleet:
    """The closed-loop load generator against a served fleet of volumes
    (``repro loadgen --self --clients 250 --ops 6`` is 1 000 sessions)."""

    def test_every_op_completes_once(self):
        cfg = LoadConfig(tenants=("t0", "t1", "t2", "t3"), clients_per_tenant=25,
                         ops_per_client=4, payload=512, seed=1337)

        async def main():
            async with serving(cfg.tenants) as (server, volumes):
                report = await run_load("127.0.0.1", server.port, cfg)
                await server.drain()
                return report, {t: vol.fsck().clean for t, vol in volumes.items()}

        obs.enable()
        try:
            report, clean = run(main())
            # 25 sessions share each volume's directory spine: the server
            # recalls a holder, so no ownership conflict crosses the wire.
            tryagain = obs.metrics.counter_total("client.retries", type="TryAgain")
        finally:
            obs.disable()
        assert report.total_completed == cfg.total_ops == 400
        assert report.completed == {t: 100 for t in cfg.tenants}
        assert report.failures == {t: 0 for t in cfg.tenants}
        assert (report.lost_responses, report.unmatched_responses) == (0, 0)
        assert report.requests_sent == report.responses_received
        assert tryagain == 0
        assert all(clean.values()), clean

    def test_a_client_stopped_before_its_ops_fails_them_all(self):
        # No tenant "zz": each client's session.open is refused, retried 8
        # times, and no op runs.  All six count as failed (it was 0), and
        # the retries are this run's own, with obs off (they were read from
        # the process-wide obs counter, so 0 here).
        cfg = LoadConfig(tenants=("zz",), clients_per_tenant=2, ops_per_client=3)

        async def main():
            async with serving() as (server, _):
                return await run_load("127.0.0.1", server.port, cfg)

        report = run(main())
        assert report.completed == {"zz": 0}
        assert report.failures == {"zz": 6}
        assert report.retries == 16
