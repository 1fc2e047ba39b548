"""End-to-end tests for the multi-tenant volume server.

Each test spins a real :class:`~repro.server.VolumeServer` on an ephemeral
localhost port inside ``asyncio.run`` (the test process has no ambient
event loop — no pytest-asyncio dependency) and talks to it over TCP.

Covered failure modes, per the serving contract:

* malformed and oversized JSON-RPC frames;
* a client disconnecting with an op still inflight;
* eviction of an idle session that still holds its inodes;
* drain with a non-empty queue (everything admitted is answered);
* backpressure: a full tenant queue rejects with typed, retryable
  :class:`~repro.errors.Overloaded`.
"""

import asyncio
import contextlib
import json

import pytest

from repro import errors
from repro.server import (
    ServerClient,
    ServerConfig,
    TenantPolicy,
    VolumeServer,
    make_volumes,
)
from repro.server import protocol

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


async def raw_connection(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def send_raw(writer, reader, payload: bytes):
    """Write raw bytes, read one response line, parse it."""
    writer.write(payload)
    await writer.drain()
    line = await reader.readline()
    assert line, "server hung up without answering"
    return json.loads(line)


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
                reader, writer = await raw_connection(server)
                try:
                    resp = await send_raw(writer, reader, b"{broken json\n")
                    assert resp["id"] is None
                    assert resp["error"]["type"] == "ProtocolError"
                    # Framing resyncs on the newline: the connection works.
                    resp = await send_raw(
                        writer, reader,
                        protocol.encode_frame({"id": 2, "method": "ping"}))
                    assert resp == {"id": 2, "result": {"pong": True}}
                    # Non-object frames and missing methods answer too.
                    resp = await send_raw(writer, reader, b"[1,2,3]\n")
                    assert resp["error"]["type"] == "ProtocolError"
                    resp = await send_raw(writer, reader, b'{"id": 9}\n')
                    assert resp["id"] == 9
                    assert resp["error"]["type"] == "ProtocolError"
                finally:
                    writer.close()
        run(main())

    def test_oversized_frame_rejected_then_disconnected(self):
        async def main():
            cfg = ServerConfig(max_frame=512)
            async with serving(config=cfg) as (server, _):
                reader, writer = await raw_connection(server)
                try:
                    big = json.dumps(
                        {"id": 1, "method": "ping",
                         "params": {"pad": "x" * 2048}}).encode() + b"\n"
                    resp = await send_raw(writer, reader, big)
                    assert resp["error"]["type"] == "ProtocolError"
                    assert "exceeds" in resp["error"]["message"]
                    # Unrecoverable framing: the server hangs up after.
                    assert await reader.readline() == b""
                finally:
                    writer.close()
        run(main())


class TestDisconnectMidOp:
    def test_client_vanishes_with_inflight_op(self):
        async def main():
            cfg = ServerConfig(debug_ops=True, lease_seconds=60)
            async with serving(config=cfg) as (server, volumes):
                reader, writer = await raw_connection(server)
                open_req = protocol.encode_frame(
                    {"id": 1, "method": "session.open", "tenant": "acme"})
                resp = await send_raw(writer, reader, open_req)
                token = resp["result"]["session"]
                # Park a worker in the op, then vanish mid-flight.
                writer.write(protocol.encode_frame(
                    {"id": 2, "method": "debug.sleep", "session": token,
                     "params": {"seconds": 0.1}}))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # The op completes server-side; the undeliverable response
                # is dropped, the dead connection's session is reaped once
                # its inflight op finishes, and the server stays up.
                for _ in range(100):
                    if len(server.sessions) == 0:
                        break
                    await asyncio.sleep(0.01)
                assert len(server.sessions) == 0
                assert server.admission.tenants["acme"].sessions == 0
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    assert await cli.ping()
                    with pytest.raises(errors.SessionGone):
                        await cli.call("stat", session=token, path="/")
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


class TestBackpressure:
    def test_queue_full_rejects_typed_retryable(self):
        async def main():
            cfg = ServerConfig(debug_ops=True)
            pol = {"acme": TenantPolicy(max_inflight=1, queue_depth=2)}
            async with serving(config=cfg, policies=pol) as (server, _):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    token = await cli.open_session("acme")
                    tenant = server.admission.tenants["acme"]
                    # Park the single worker first...
                    waits = [asyncio.ensure_future(cli.call(
                        "debug.sleep", session=token, seconds=0.3))]
                    while tenant.executing == 0:
                        await asyncio.sleep(0.005)
                    # ...then fill the bounded queue to its depth.
                    waits += [asyncio.ensure_future(cli.call(
                        "debug.sleep", session=token, seconds=0.01))
                        for _ in range(2)]
                    while tenant.queue.qsize() < 2:
                        await asyncio.sleep(0.005)
                    with pytest.raises(errors.Overloaded) as ei:
                        await cli.call("stat", session=token, path="/")
                    assert ei.value.retryable
                    # Closed loop: everything admitted completes.
                    results = await asyncio.gather(*waits)
                    assert all(r["slept"] for r in results)
                    # And with the queue drained, the same op is admitted.
                    st = await cli.call("stat", session=token, path="/")
                    assert st["ino"] == 0  # the root directory
        run(main())


class TestDrain:
    def test_drain_with_nonempty_queue_answers_everything(self):
        async def main():
            cfg = ServerConfig(debug_ops=True)
            pol = {"acme": TenantPolicy(max_inflight=1, queue_depth=8)}
            async with serving(config=cfg, policies=pol) as (server, volumes):
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    token = await cli.open_session("acme")
                    slow = asyncio.ensure_future(cli.call(
                        "debug.sleep", session=token, seconds=0.1))
                    writes = [asyncio.ensure_future(cli.call(
                        "write_file", session=token, path=f"/d{i}.dat",
                        data=protocol.pack_bytes(b"drain me")))
                        for i in range(4)]
                    await asyncio.sleep(0.02)  # queue is now non-empty
                    assert server.admission.tenants["acme"].pending > 0
                    drain_task = asyncio.ensure_future(server.drain())
                    await asyncio.sleep(0)
                    # New work during drain: typed retryable rejection.
                    with pytest.raises(errors.Overloaded) as ei:
                        await cli.call("stat", session=token, path="/")
                    assert ei.value.retryable
                    # Every op admitted before the drain is answered.
                    assert (await slow)["slept"]
                    assert [w["written"] for w in await asyncio.gather(
                        *writes)] == [8] * 4
                    await drain_task
                    assert server.admission.quiesced()
                    assert len(server.sessions) == 0
                vol = volumes["acme"]
                report = vol.fsck()
                assert report.clean, report.summary()
                # Drained state persisted: the queued writes all landed.
                with vol.session("post-drain") as s:
                    for i in range(4):
                        assert s.read_file(f"/d{i}.dat") == b"drain me"
        run(main())

    def test_drain_is_idempotent(self):
        async def main():
            async with serving() as (server, _):
                await server.drain()
                await server.drain()
                assert server.draining
        run(main())
