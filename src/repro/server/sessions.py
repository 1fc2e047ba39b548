"""The server's session table: tokens, idle leases, eviction.

A *server session* pairs one :class:`repro.api.Session` (the LibFS-side
untrusted state) with the coordinator-side bookkeeping the server needs:
the wire token that names it, the tenant it counts against, the connection
that opened it and an idle lease.

Eviction is lease-based: every executed op refreshes ``last_used``; a
session idle past ``lease_seconds`` is closed by the reaper and its slot
returned to the tenant.  A later request naming the token gets
:class:`~repro.errors.SessionGone` (retryable: open a fresh session).
The same reaper tick bounds how long *unverified* state outlives traffic:
a session keeps the inodes it acquired between requests (DESIGN §10), and
one that has been quiet for ``idle_seconds`` hands them back — verified —
while its token stays good.
A session is never torn down mid-op: ops are synchronous on the one loop,
so whoever closes a session — the client, the reaper, a lost connection,
drain — does so between two of them, and a torn-down session is out of the
table before anyone can look it up again.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.api import Session
from repro.errors import CorruptionDetected, SessionGone
from repro.server.admission import TenantState


class ServerSession:
    """One app session as the server tracks it."""

    __slots__ = ("token", "tenant", "session", "conn_id", "last_used",
                 "holding", "deferred_error")

    def __init__(self, token: str, tenant: TenantState, session: Session,
                 conn_id: int, now: float):
        self.token = token
        self.tenant = tenant
        self.session = session
        self.conn_id = conn_id
        self.last_used = now
        #: An op ran since the last :meth:`release_holdings`, so the
        #: session may own inodes (and the kernel their rollback snapshots).
        self.holding = False
        #: What went wrong while the coordinator released this session's
        #: holdings behind its back — in practice a verification failure;
        #: raised once, on its next request (errseq-style: the tenant whose
        #: acknowledged changes were rolled back is the one told).
        self.deferred_error: Optional[Exception] = None

    @property
    def app_id(self) -> str:
        return self.session.fs.app_id

    def release_holdings(self) -> None:
        """Hand everything the session owns back to the kernel, verified
        like any voluntary release.  Called between the session's ops
        (recall, idle tick, teardown): nobody is waiting for the verdict
        and the resolution policy has already run, so a failure is parked
        for the holder instead of raised.  ``release_all`` stops at the
        inode that failed verification, having dropped it, so each pass
        holds fewer.  Anything else (a simulated fault mid-release) proves
        no such progress: it is parked too, but what is left stays held
        and ``holding`` stays set, so the next tick tries again — the
        caller, often the reaper, never sees an exception."""
        while True:
            try:
                self.session.release_all()
                self.holding = False
                return
            except Exception as exc:
                if self.deferred_error is None:
                    self.deferred_error = exc
                obs.count("server.deferred_errors", tenant=self.tenant.name)
                if not isinstance(exc, CorruptionDetected):
                    return

    def touch(self, now: float) -> None:
        self.last_used = now

    def idle_for(self, now: float) -> float:
        return now - self.last_used


class SessionTable:
    """Token → :class:`ServerSession`, plus the eviction policy."""

    def __init__(self, *, lease_seconds: float, idle_seconds: float,
                 on_release: Callable[[TenantState], None]):
        self.lease_seconds = lease_seconds
        self.idle_seconds = idle_seconds
        self._on_release = on_release
        self._by_token: Dict[str, ServerSession] = {}
        self._by_app: Dict[str, ServerSession] = {}
        self._tokens = itertools.count(1)

    def __len__(self) -> int:
        return len(self._by_token)

    def all(self) -> List[ServerSession]:
        return list(self._by_token.values())

    # -- open / lookup ----------------------------------------------------- #

    def register(self, tenant: TenantState, session: Session,
                 conn_id: int, now: float) -> ServerSession:
        token = f"{tenant.name}-{next(self._tokens):x}"
        ss = ServerSession(token, tenant, session, conn_id, now)
        self._by_token[token] = ss
        self._by_app[ss.app_id] = ss
        return ss

    def by_app(self, app_id: Optional[str]) -> Optional[ServerSession]:
        """The live session registered with the kernel as ``app_id``."""
        return self._by_app.get(app_id)

    def lookup(self, token: Optional[str]) -> ServerSession:
        if not token:
            raise SessionGone("request names no session")
        ss = self._by_token.get(token)
        if ss is None:
            raise SessionGone(
                f"session {token!r} is gone (evicted or closed); "
                "open a new session and re-issue")
        return ss

    # -- close / eviction --------------------------------------------------- #

    def close_session(self, ss: ServerSession, reason: str = "close") -> None:
        """Tear ``ss`` down: out of the table, holdings released, the
        tenant's session slot returned."""
        del self._by_token[ss.token]
        del self._by_app[ss.app_id]
        try:
            # Whatever the session still holds goes first, so a failed
            # verification cannot cut the shutdown below short and leave
            # inodes owned by an app that no longer exists.
            ss.release_holdings()
            ss.session.close()  # idempotent
        finally:
            self._on_release(ss.tenant)
        obs.count("server.sessions_closed", tenant=ss.tenant.name,
                  reason=reason)
        if reason == "idle_lease":
            obs.count("server.evictions", tenant=ss.tenant.name)

    def evict_idle(self, now: float) -> int:
        """One reaper tick: close every session whose idle lease lapsed
        (returns the count); a session merely quiet for ``idle_seconds``
        keeps its token but releases what it holds."""
        evicted = 0
        for ss in self.all():
            idle = ss.idle_for(now)
            if idle >= self.lease_seconds:
                self.close_session(ss, "idle_lease")
                evicted += 1
            elif ss.holding and idle >= self.idle_seconds:
                ss.release_holdings()
                obs.count("server.idle_releases", tenant=ss.tenant.name)
        return evicted

    def close_connection(self, conn_id: int) -> None:
        """Close every session a dead connection owned."""
        for ss in self.all():
            if ss.conn_id == conn_id:
                self.close_session(ss, "disconnect")

    def close_all(self) -> None:
        for ss in self.all():
            self.close_session(ss, "shutdown")
