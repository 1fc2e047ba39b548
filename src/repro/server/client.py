"""Asyncio client for the volume server.

One :class:`ServerClient` owns one TCP connection and multiplexes any
number of logical sessions over it: every request carries a fresh ``id``,
and ``data_received`` — the client is the connection's
:class:`asyncio.Protocol`, there is no reader task — resolves the matching
future when the response frame arrives (the server answers a connection
in request order; matching by ``id`` does not rely on it).  Each caller
waits for its own reply, which is all the flow control a request/response client
needs: what is in flight is bounded by who is calling.

Errors come back *typed*: a rejected op raises the same
:class:`~repro.errors.Overloaded` / :class:`~repro.errors.TenantLimit` /
:class:`~repro.errors.NoEntry` the server raised, reconstructed from the
wire body, with ``retryable`` preserved.  :meth:`call_retry` is the
polite-client loop the load generator uses: exponential backoff on exactly
the retryable errors, bounded attempts, everything else propagates.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional

from repro import obs
from repro.errors import (ProtocolError, ReproError, ServerError, SessionGone,
                          TxAborted)
from repro.server import protocol


class ServerClient(asyncio.Protocol):
    """One connection to a :class:`~repro.server.server.VolumeServer`."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._frames = protocol.FrameSplitter()
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        #: End-to-end accounting (the load generator's lost/dup audit).
        self.sent = 0
        self.received = 0
        self.unmatched = 0
        #: Retryable rejections :meth:`call_retry` absorbed.
        self.retries = 0
        #: Why no further call can be answered (closed, hung up on, or sent
        #: something that cannot be framed); None while the connection works.
        self._lost: Optional[ReproError] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServerClient":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    async def __aenter__(self) -> "ServerClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        self._fail(ServerError("client is closed"))
        self._transport.close()

    # ------------------------------------------------------------------ #
    # Wire plumbing
    # ------------------------------------------------------------------ #

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()

    def data_received(self, data: bytes) -> None:
        try:
            for raw in self._frames.feed(data):
                frame = protocol.decode_frame(raw)
                self.received += 1
                fut = self._pending.pop(frame.get("id"), None)
                if fut is None or fut.done():
                    self.unmatched += 1  # duplicate or unknown id
                elif "error" in frame:
                    fut.set_exception(
                        protocol.exception_for(frame["error"]))
                else:
                    fut.set_result(frame.get("result"))
        except Exception as exc:
            # Past a frame that cannot be read no reply can be matched.
            self._fail(exc if isinstance(exc, ReproError)
                       else ServerError(str(exc)))
            self._transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(ServerError("server closed the connection"))

    def _fail(self, exc: ReproError) -> None:
        """The connection is finished: the first reason is kept for later
        callers, everyone waiting is told now."""
        if self._lost is None:
            self._lost = exc
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()

    async def call(self, method: str, *, tenant: Optional[str] = None,
                   session: Optional[str] = None, **params):
        """Issue one request and await its (typed) response."""
        if self._lost is not None:
            raise ServerError(f"connection lost: {self._lost}")
        req_id = next(self._ids)
        frame: Dict = {"id": req_id, "method": method, "params": params}
        if tenant is not None:
            frame["tenant"] = tenant
        if session is not None:
            frame["session"] = session
        wire = protocol.encode_frame(frame)
        if len(wire) > protocol.MAX_FRAME_BYTES:
            # Refused here, with nothing sent: the server would answer once
            # and hang up on every session this connection carries.
            raise ProtocolError(
                f"{method} frame of {len(wire)} bytes exceeds the "
                f"{protocol.MAX_FRAME_BYTES}-byte limit")
        fut = self._loop.create_future()
        self._pending[req_id] = fut
        self.sent += 1
        self._transport.write(wire)
        try:
            return await fut
        finally:
            # Answered, failed or cancelled: the id is done either way, and
            # a reply that comes after all counts as ``unmatched``.
            self._pending.pop(req_id, None)

    async def call_retry(self, method: str, *, retries: int = 8,
                         backoff: float = 0.005, max_backoff: float = 0.25,
                         **kw):
        """:meth:`call`, retrying retryable rejections with exponential
        backoff.  The closed-loop client contract: backpressure slows the
        caller down instead of losing its op.

        :class:`~repro.errors.TxAborted` goes straight to the caller: what
        can be retried is the transaction, which only the caller can stage
        again — the server already dropped it, so re-sending ``tx_commit``
        alone would answer "no transaction open" and hide the abort."""
        delay = backoff
        for attempt in range(retries + 1):
            try:
                return await self.call(method, **kw)
            except ReproError as exc:
                if (not getattr(exc, "retryable", False)
                        or isinstance(exc, TxAborted) or attempt == retries):
                    raise
                self.retries += 1
                obs.count("client.retries", method=method,
                          type=type(exc).__name__)
                await asyncio.sleep(delay)
                delay = min(delay * 2, max_backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Convenience verbs
    # ------------------------------------------------------------------ #

    async def ping(self) -> bool:
        return bool((await self.call("ping"))["pong"])

    async def open_session(self, tenant: str, **params) -> str:
        result = await self.call("session.open", tenant=tenant, **params)
        return result["session"]

    async def close_session(self, session: str) -> bool:
        result = await self.call("session.close", session=session)
        return bool(result["closed"])

    async def stats(self) -> Dict:
        return await self.call("stats")

    # Typed helpers for the common data ops (the full method table is in
    # repro.ops; anything there works through call()).

    async def write_file(self, session: str, path: str, data: bytes,
                         **kw) -> int:
        result = await self.call_retry(
            "write_file", session=session, path=path,
            data=protocol.pack_bytes(data), **kw)
        return result["written"]

    async def read_file(self, session: str, path: str, **kw) -> bytes:
        result = await self.call_retry("read_file", session=session,
                                       path=path, **kw)
        return protocol.unpack_bytes(result["data"])

    async def rename(self, session: str, old: str, new: str, **kw) -> None:
        await self.call_retry("rename", session=session, old=old, new=new,
                              **kw)


class SessionHandle:
    """A logical client session: remembers its token, transparently
    reopens after eviction (:class:`~repro.errors.SessionGone`), and
    forwards ops through :meth:`ServerClient.call_retry`."""

    def __init__(self, client: ServerClient, tenant: str):
        self.client = client
        self.tenant = tenant
        self.token: Optional[str] = None
        self.reopens = 0

    async def ensure(self) -> str:
        if self.token is None:
            result = await self.client.call_retry(
                "session.open", tenant=self.tenant)
            self.token = result["session"]
        return self.token

    async def call(self, method: str, **params):
        for _ in range(2):
            token = await self.ensure()
            try:
                return await self.client.call_retry(
                    method, session=token, **params)
            except SessionGone:
                self.token = None
                self.reopens += 1
        raise ProtocolError(f"session for {self.tenant!r} kept vanishing")

    async def close(self) -> None:
        if self.token is not None:
            try:
                await self.client.close_session(self.token)
            finally:
                self.token = None
