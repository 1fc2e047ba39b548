"""The multi-tenant async volume server.

One process, many volumes, thousands of app sessions.  The design mirrors
the paper's trust split (and KucoFS's coordinator/data-path cut): the
server is the *trusted coordinator* — it owns admission, session leases,
queues and drain — while each admitted op executes against an untrusted
per-app :class:`repro.api.Session`, exactly the LibFS state a real ArckFS
process would mmap.

Shape (all on one asyncio loop)::

    acceptor ──> per-connection reader ──> router
                                             │  control ops inline
                                             │  data ops: admission check
                                             ▼
                                  per-tenant bounded queue
                                             │
                              per-tenant worker pool (max_inflight tasks)
                                             │
                                  Session op + response write

Ownership follows the paper's rule — verification on *transfer*, not on
every request.  A wire session keeps the inodes it acquired between
requests, exactly as an in-process ``Session`` does; they move (and are
verified against the acquisition's own rollback snapshot) only when
another session needs one — the coordinator *recalls* the holder inside
:meth:`VolumeServer._run_op` and re-runs the op, no client round trip —
when the holder has been quiet for one reaper tick, or when its session
ends.  DESIGN §10 has the contract.

Backpressure is explicit: a full tenant queue rejects the op with a typed,
retryable :class:`~repro.errors.Overloaded` *at admission time* — requests
are never silently dropped and queues never grow past their bound.  Idle
sessions are evicted on a lease (:mod:`.sessions`); shutdown is graceful:
:meth:`VolumeServer.drain` stops accepting, flushes every queue, answers
everything already admitted, closes the sessions and quiesces each volume
so a drained server always leaves fsck-clean volumes behind.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.api import Volume
from repro.errors import (
    InvalidArgument,
    ProtocolError,
    ReproError,
    TryAgain,
)
from repro.server import protocol
from repro.server.admission import AdmissionController, TenantPolicy, TenantState
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
    #: How long drain() waits for admitted work to finish.
    drain_timeout: float = 30.0
    #: Enable test-only methods (``debug.sleep`` parks a tenant worker) —
    #: used by the drain/backpressure tests and the load bench's probe.
    debug_ops: bool = False


class _Connection:
    """One accepted client connection (possibly multiplexing many
    sessions); owns the write side."""

    _ids = itertools.count(1)

    def __init__(self, server: "VolumeServer", writer: asyncio.StreamWriter):
        self.id = next(_Connection._ids)
        self.server = server
        self.writer = writer

    async def send(self, frame: Dict) -> None:
        if self.writer.is_closing():
            obs.count("server.responses_dropped")
            return
        try:
            self.writer.write(protocol.encode_frame(frame))
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            # The client went away mid-op; the op itself completed (or
            # failed) against the volume — only the response is undeliverable.
            obs.count("server.responses_dropped")


class VolumeServer:
    """Serve ``volumes`` (tenant name → :class:`~repro.api.Volume`) over
    line-delimited JSON-RPC on asyncio."""

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
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        self._evictor: Optional[asyncio.Task] = None
        self._conns: Dict[int, _Connection] = {}
        self._app_ids = itertools.count(1)
        self._drained = False
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
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connect, self.config.host, self.config.port,
            limit=self.config.max_frame + 2)
        for t in self.admission.tenants.values():
            for _ in range(t.policy.max_inflight):
                self._workers.append(loop.create_task(self._worker(t)))
        self._evictor = loop.create_task(self._evict_loop())
        return self

    async def __aenter__(self) -> "VolumeServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def drain(self) -> None:
        """Graceful quiesce: stop accepting, reject new work (typed,
        retryable), finish everything already admitted, close every
        session and settle each volume.  Idempotent."""
        if self._drained:
            return
        self._drained = True
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        joins = [t.queue.join() for t in self.admission.tenants.values()]
        if joins:
            await asyncio.wait_for(
                asyncio.gather(*joins), timeout=self.config.drain_timeout)
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
        for w in self._workers:
            w.cancel()
        await asyncio.gather(self._evictor, *self._workers,
                             return_exceptions=True)
        for conn in list(self._conns.values()):
            conn.writer.close()

    # ------------------------------------------------------------------ #
    # Accept / read loop
    # ------------------------------------------------------------------ #

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, writer)
        self._conns[conn.id] = conn
        obs.count("server.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline overran the frame limit: the framing is
                    # unrecoverable on this connection — answer once, hang up.
                    await conn.send(protocol.error_response(
                        None, ProtocolError(
                            f"frame exceeds {self.config.max_frame} bytes")))
                    break
                if not line:
                    break  # EOF
                if line.strip() == b"":
                    continue
                await self._route(conn, line)
        finally:
            self._conns.pop(conn.id, None)
            self.sessions.close_connection(conn.id)
            writer.close()

    async def _route(self, conn: _Connection, line: bytes) -> None:
        req_id = None
        try:
            frame = protocol.decode_frame(line, max_bytes=self.config.max_frame)
            req_id = frame.get("id")
            req = protocol.parse_request(frame)
        except ProtocolError as exc:
            obs.count("server.protocol_errors")
            await conn.send(protocol.error_response(req_id, exc))
            return
        method = req["method"]
        try:
            if method == "ping":
                await conn.send(protocol.ok_response(req_id, {"pong": True}))
            elif method == "session.open":
                await self._open_session(conn, req)
            elif method == "session.close":
                await self._close_session(conn, req)
            elif method == "stats":
                await conn.send(protocol.ok_response(req_id, self.stats()))
            elif method in SESSION_OPS or (
                    self.config.debug_ops and method == "debug.sleep"):
                self._admit_op(conn, req)
            else:
                raise ProtocolError(f"unknown method {method!r}")
        except ReproError as exc:
            await conn.send(protocol.error_response(req_id, exc))

    # ------------------------------------------------------------------ #
    # Control ops (coordinator work, run inline)
    # ------------------------------------------------------------------ #

    async def _open_session(self, conn: _Connection, req: Dict) -> None:
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
        await conn.send(protocol.ok_response(
            req["id"], {"session": ss.token, "app_id": app_id,
                        "lease_seconds": self.config.lease_seconds}))

    async def _close_session(self, conn: _Connection, req: Dict) -> None:
        # Idempotent by contract: closing an already-gone token succeeds —
        # eviction, drain and client close race freely.
        try:
            ss = self.sessions.lookup(req["session"])
        except ReproError:
            await conn.send(protocol.ok_response(req["id"], {"closed": False}))
            return
        done = self.sessions.close_session(ss, reason="close")
        await conn.send(protocol.ok_response(req["id"], {"closed": done}))

    def stats(self) -> Dict:
        return {
            "draining": self.admission.draining,
            "connections": len(self._conns),
            "sessions": len(self.sessions),
            "tenants": {
                t.name: {
                    "sessions": t.sessions,
                    "queued": t.queue.qsize(),
                    "executing": t.executing,
                    "recalls": t.recalls,
                    "policy": {
                        "max_sessions": t.policy.max_sessions,
                        "max_inflight": t.policy.max_inflight,
                        "queue_depth": t.policy.queue_depth,
                    },
                } for t in self.admission.tenants.values()
            },
        }

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def _admit_op(self, conn: _Connection, req: Dict) -> None:
        ss = self.sessions.lookup(req["session"])
        if req["tenant"] is not None and req["tenant"] != ss.tenant.name:
            raise ProtocolError(
                f"session {ss.token!r} belongs to tenant "
                f"{ss.tenant.name!r}, not {req['tenant']!r}")
        item = (req, ss, conn)
        self.admission.admit_request(ss.tenant.name, item)
        # No await between admit and this line: the inflight count is up
        # before any worker can observe the queued item.
        ss.inflight += 1

    async def _worker(self, tenant: TenantState) -> None:
        while True:
            item = await tenant.queue.get()
            self.admission.start_execute(tenant)
            try:
                await self._execute(*item)
            finally:
                self.admission.finish_execute(tenant)
                tenant.queue.task_done()

    async def _execute(self, req: Dict, ss: ServerSession,
                       conn: _Connection) -> None:
        method = req["method"]
        t0 = time.perf_counter_ns()
        try:
            if method == "debug.sleep":  # test-only; gated at routing
                await asyncio.sleep(float(req["params"].get("seconds", 0.01)))
                resp = protocol.ok_response(req["id"], {"slept": True})
            else:
                resp = protocol.ok_response(
                    req["id"], self._run_op(ss, method, req["params"]))
            obs.count("server.ops_completed", tenant=ss.tenant.name)
        except Exception as exc:  # simulated faults and FS errors alike
            obs.count("server.op_errors", tenant=ss.tenant.name,
                      type=type(exc).__name__)
            resp = protocol.error_response(req["id"], exc)
        finally:
            now = asyncio.get_running_loop().time()
            self.sessions.finish_op(ss, now)
        if obs.enabled:
            obs.metrics.histogram(
                "server.op_latency_ns",
                tenant=ss.tenant.name).observe(time.perf_counter_ns() - t0)
        await conn.send(resp)

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
                obs.count("server.recalls", tenant=tenant.name)
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
