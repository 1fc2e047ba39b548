"""The multi-tenant async volume server.

One process, many volumes, thousands of app sessions.  The design mirrors
the paper's trust split (and KucoFS's coordinator/data-path cut): the
server is the *trusted coordinator* — it owns admission, session leases
and drain — while each admitted op executes against an untrusted per-app
:class:`repro.api.Session`, exactly the LibFS state a real ArckFS process
would mmap.

Shape (one asyncio loop, one op at a time; an op runs in the read that
brought it and nothing is parked between a request and its reply)::

    connection.data_received ──> frames, in arrival order ──> router
                                                                │
        control ops: answered inline ◀──────────────────────────┤
        data ops: admission (draining? per-read bound?)
                                                                ▼
                                    Session op + transport.write(reply)

So a connection is answered in request order.  Nothing that runs an op
waits on a peer: a connection that stops reading its replies has its own
*reads* paused (``pause_writing``), so it stops being served and nobody
else does.

Ownership follows the paper's rule — verification on *transfer*, not on
every request.  A wire session keeps the inodes it acquired between
requests, exactly as an in-process ``Session`` does; they move (and are
verified against the acquisition's own rollback snapshot) only when
another session needs one — the coordinator *recalls* the holder inside
:meth:`VolumeServer._run_op` and re-runs the op, no client round trip —
when the holder has been quiet for one reaper tick, or when its session
ends.  DESIGN §10 has the contract.

Backpressure is explicit: a read that has already run ``max_burst`` of a
tenant's ops refuses the tenant's next one with a typed, retryable
:class:`~repro.errors.Overloaded` — requests are never silently dropped,
and however much a peer pipelines it keeps the loop for one bounded burst.
Idle sessions are evicted on a lease (:mod:`.sessions`); shutdown is
graceful: :meth:`VolumeServer.drain` refuses new work, stops accepting,
closes the sessions and quiesces each volume — every op read before it has
already been answered — so a drained server always leaves fsck-clean
volumes behind.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.api import Volume
from repro.errors import (
    InvalidArgument,
    ProtocolError,
    ReproError,
    SessionGone,
    TryAgain,
)
from repro.server import protocol
from repro.server.admission import AdmissionController, TenantPolicy
from repro.server.dispatch import SESSION_OPS, uid_param
from repro.server.sessions import ServerSession, SessionTable


@dataclass
class ServerConfig:
    """Knobs for one :class:`VolumeServer`."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral (the bound port is ``server.port`` after start()).
    port: int = 0
    #: Default per-tenant admission policy (override per tenant via
    #: ``policies``).
    policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: Idle lease: a session untouched this long is evicted.
    lease_seconds: float = 30.0
    #: How often the reaper looks for lapsed leases.  Also how long a
    #: quiet session keeps the inodes it holds: one tick, then they are
    #: released (and verified) while the session itself lives on.
    evict_interval: float = 1.0
    #: Largest accepted wire frame.
    max_frame: int = protocol.MAX_FRAME_BYTES


class _Connection(asyncio.Protocol):
    """One accepted client connection (possibly multiplexing many
    sessions): reassembles request frames, writes reply frames."""

    _ids = itertools.count(1)

    def __init__(self, server: "VolumeServer"):
        self.id = next(_Connection._ids)
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.frames = protocol.FrameSplitter(server.config.max_frame)

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns[self.id] = self
        obs.count("server.connections")

    def data_received(self, data: bytes) -> None:
        server = self.server
        try:
            for raw in self.frames.feed(data):
                server._route(self, raw)
        except ProtocolError as exc:
            # From the splitter (``_route`` answers its own): a prefix over
            # the frame limit is unrecoverable — answer once, hang up.
            obs.count("server.protocol_errors")
            self.send(protocol.error_response(None, exc))
            self.transport.close()
        finally:
            # One read runs at most ``max_burst`` ops per tenant however
            # much a peer pipelines: that is how long a burst keeps the loop.
            server.admission.end_read()

    def send(self, frame: Dict) -> None:
        if self.transport.is_closing():
            # The client went away mid-op; the op itself completed (or
            # failed) against the volume — only the response is undeliverable.
            obs.count("server.responses_dropped")
            return
        wire = protocol.encode_frame(frame)
        if len(wire) > protocol.MAX_FRAME_BYTES:
            # The client would refuse it from its prefix and hang up on
            # every session this connection carries: refuse this one call.
            wire = protocol.encode_frame(protocol.error_response(
                frame.get("id"), ProtocolError(
                    f"reply of {len(wire)} bytes exceeds the "
                    f"{protocol.MAX_FRAME_BYTES}-byte limit")))
        self.transport.write(wire)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._conns.pop(self.id, None)
        self.server.sessions.close_connection(self.id)


class VolumeServer:
    """Serve ``volumes`` (tenant name → :class:`~repro.api.Volume`) over
    length-prefixed JSON-RPC frames on asyncio."""

    def __init__(self, volumes: Dict[str, Volume],
                 config: Optional[ServerConfig] = None,
                 policies: Optional[Dict[str, TenantPolicy]] = None):
        if not volumes:
            raise InvalidArgument("a server needs at least one volume")
        self.volumes = dict(volumes)
        self.config = config or ServerConfig()
        pol = dict(policies or {})
        self.admission = AdmissionController(
            {t: pol.get(t, self.config.policy) for t in self.volumes})
        self.sessions = SessionTable(
            lease_seconds=self.config.lease_seconds,
            idle_seconds=self.config.evict_interval,
            on_release=self.admission.release_session)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._evictor: Optional[asyncio.Task] = None
        self._conns: Dict[int, _Connection] = {}
        self._app_ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self.admission.draining

    async def start(self) -> "VolumeServer":
        loop = self._loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        self._evictor = loop.create_task(self._evict_loop())
        return self

    async def __aenter__(self) -> "VolumeServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def drain(self) -> None:
        """Graceful quiesce: reject new work (typed, retryable), stop
        accepting, close every session and settle each volume.  An op runs
        in the read that brought it, so none is left to wait for.
        Idempotent."""
        if self.draining:
            return
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.sessions.close_all()
        for vol in self.volumes.values():
            vol.quiesce()
        obs.count("server.drains")

    async def close(self) -> None:
        """Drain, then tear the machinery down.  The volumes themselves
        stay open — whoever built them owns their lifetime."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self._evictor is not None:
            self._evictor.cancel()
            await asyncio.gather(self._evictor, return_exceptions=True)
        for conn in list(self._conns.values()):
            conn.transport.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _route(self, conn: _Connection, raw: bytes) -> None:
        req_id = None
        try:
            frame = protocol.decode_frame(raw, max_bytes=self.config.max_frame)
            req_id = frame.get("id")
            req = protocol.parse_request(frame)
        except ProtocolError as exc:
            # The prefix was good, so the next frame starts where it said.
            obs.count("server.protocol_errors")
            conn.send(protocol.error_response(req_id, exc))
            return
        method = req["method"]
        try:
            if method in SESSION_OPS:
                ss = self.sessions.lookup(req["session"])
                if req["tenant"] not in (None, ss.tenant.name):
                    raise ProtocolError(
                        f"session {ss.token!r} belongs to tenant "
                        f"{ss.tenant.name!r}, not {req['tenant']!r}")
                self.admission.admit_request(ss.tenant)
                self._execute(conn, req, ss)
            elif method == "ping":
                conn.send(protocol.ok_response(req_id, {"pong": True}))
            elif method == "session.open":
                self._open_session(conn, req)
            elif method == "session.close":
                self._close_session(conn, req)
            elif method == "stats":
                conn.send(protocol.ok_response(req_id, self.stats()))
            else:
                raise ProtocolError(f"unknown method {method!r}")
        except ReproError as exc:
            conn.send(protocol.error_response(req_id, exc))

    # ------------------------------------------------------------------ #
    # Control ops (coordinator work, run inline)
    # ------------------------------------------------------------------ #

    def _open_session(self, conn: _Connection, req: Dict) -> None:
        uid = uid_param(req["params"])  # before the slot is taken
        tenant = self.admission.admit_session(req["tenant"])
        try:
            volume = self.volumes[tenant.name]
            app_id = f"{tenant.name}#{next(self._app_ids)}"
            api_session = volume.session(app_id, uid=uid)
        except BaseException:
            self.admission.release_session(tenant)
            raise
        now = asyncio.get_running_loop().time()
        ss = self.sessions.register(tenant, api_session, conn.id, now)
        conn.send(protocol.ok_response(
            req["id"], {"session": ss.token, "app_id": app_id,
                        "lease_seconds": self.config.lease_seconds}))

    def _close_session(self, conn: _Connection, req: Dict) -> None:
        # Idempotent by contract: closing an already-gone token succeeds —
        # eviction, drain and client close race freely.
        try:
            ss = self.sessions.lookup(req["session"])
        except SessionGone:
            closed = False
        else:
            self.sessions.close_session(ss)
            closed = True
        conn.send(protocol.ok_response(req["id"], {"closed": closed}))

    def stats(self) -> Dict:
        return {
            "draining": self.admission.draining,
            "connections": len(self._conns),
            "sessions": len(self.sessions),
            "tenants": {
                t.name: {
                    "sessions": t.sessions,
                    "recalls": t.recalls,
                    "policy": {
                        "max_sessions": t.policy.max_sessions,
                        "max_burst": t.policy.max_burst,
                    },
                } for t in self.admission.tenants.values()
            },
        }

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def _execute(self, conn: _Connection, req: Dict, ss: ServerSession) -> None:
        """Run one admitted op to its reply."""
        method, tenant = req["method"], ss.tenant
        t0 = time.perf_counter_ns() if obs.enabled else None
        try:
            resp = protocol.ok_response(
                req["id"], self._run_op(ss, method, req["params"]))
            obs.count("server.ops_completed", tenant=tenant.name)
        except Exception as exc:  # simulated faults and FS errors alike
            obs.count("server.op_errors", tenant=tenant.name,
                      type=type(exc).__name__)
            resp = protocol.error_response(req["id"], exc)
        finally:
            ss.touch(self._loop.time())
        if t0 is not None:
            obs.metrics.histogram(
                "server.op_latency_ns",
                tenant=tenant.name).observe(time.perf_counter_ns() - t0)
        conn.send(resp)

    def _run_op(self, ss: ServerSession, method: str, params: Dict) -> Dict:
        """Run one session op under the ownership policy, retain + recall.

        Nothing is released here: the session keeps what the op acquired,
        so a sole owner is verified once per transfer, not once per
        request.  When the op trips over an inode that another session of
        this server holds, the coordinator recalls the holder — its
        ``release_all()`` verifies each inode against the acquisition's
        own snapshot — and re-runs the op: no round trip, no back-off.
        Ops are synchronous on the one loop, so a holder is never mid-op
        and cannot re-acquire before we return; every recall therefore
        removes a conflict for good and the loop ends.  A conflict a
        recall cannot clear (a holder outside this server, the ownerless
        rename lease, an inode still owned afterwards) reaches the client
        as the retryable ``TryAgain`` it always was.  ``tx_commit`` cannot
        be re-run once it has sealed, so its adapter first takes everything
        the apply will need (``Tx.prepare``); a conflict surfaces there,
        through this same loop, and never mid-apply.
        """
        if ss.deferred_error is not None:
            exc, ss.deferred_error = ss.deferred_error, None
            raise exc
        ss.holding = True
        op = SESSION_OPS[method]
        while True:
            try:
                return op(ss.session, params)
            except TryAgain as busy:
                holder = self.sessions.by_app(busy.owner)
                if holder is None:
                    raise
                tenant = ss.tenant
                holder.release_holdings()
                tenant.recalls += 1
                acq = self.volumes[tenant.name].kernel.acquisitions.get(
                    busy.ino)
                if acq is not None and acq.app_id == busy.owner:
                    obs.count("server.recall_failures", tenant=tenant.name)
                    raise

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    async def _evict_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.evict_interval)
            self.sessions.evict_idle(loop.time())

    def evict_idle_now(self) -> int:
        """Run one eviction pass immediately (tests and ops tooling)."""
        return self.sessions.evict_idle(asyncio.get_running_loop().time())
