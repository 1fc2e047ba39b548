"""Per-tenant admission control: session caps, bounded queues, backpressure.

The server's trusted-coordinator role (mirroring the kernel side of the
ArckFS trust split) starts here: before any request touches a volume, the
tenant it belongs to must have (a) capacity for another session and (b)
room in its bounded request queue.  Exceeding either produces a *typed,
retryable* error — :class:`~repro.errors.TenantLimit` /
:class:`~repro.errors.Overloaded` — never a silent drop and never an
unbounded queue.

Everything runs on the server's single asyncio loop, so the state needs no
locks; the per-tenant queue is an :class:`asyncio.Queue` whose ``maxsize``
is the queue-depth limit.  "Max inflight ops" is a count, not a pool: the
server takes an op off the queue only while ``executing < max_inflight``,
so at any instant a tenant holds at most ``queue_depth + max_inflight``
admitted requests.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.errors import Overloaded, TenantLimit


@dataclass(frozen=True)
class TenantPolicy:
    """Admission limits for one tenant."""

    #: Concurrent open sessions (``session.open`` beyond this → TenantLimit).
    max_sessions: int = 1024
    #: Slots: this tenant's ops executing at once.
    max_inflight: int = 4
    #: Requests parked waiting for a slot (beyond this → Overloaded).
    queue_depth: int = 64


class TenantState:
    """One tenant's live admission state (queue + counters)."""

    def __init__(self, name: str, policy: TenantPolicy):
        self.name = name
        self.policy = policy
        self.sessions = 0
        self.executing = 0
        #: Times a session of this tenant had to recall an inode from
        #: another (the sharing the tenant's own sessions cause).
        self.recalls = 0
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=policy.queue_depth)

    @property
    def pending(self) -> int:
        """Admitted-but-unfinished requests (queued + executing)."""
        return self.queue.qsize() + self.executing

    def __repr__(self) -> str:
        return (f"<TenantState {self.name!r} sessions={self.sessions} "
                f"queued={self.queue.qsize()} executing={self.executing}>")


class AdmissionController:
    """Admits sessions and requests against per-tenant policies."""

    def __init__(self, policies: Dict[str, TenantPolicy],
                 default: Optional[TenantPolicy] = None):
        self.default = default
        self.tenants: Dict[str, TenantState] = {
            name: TenantState(name, pol) for name, pol in policies.items()
        }
        self.draining = False

    # -- tenants ----------------------------------------------------------- #

    def tenant(self, name: Optional[str]) -> TenantState:
        """The tenant's state; unknown tenants are rejected unless a
        default policy makes the server open-enrollment."""
        if name is None:
            raise TenantLimit("request names no tenant")
        state = self.tenants.get(name)
        if state is None:
            if self.default is None:
                raise TenantLimit(f"unknown tenant {name!r}")
            state = self.tenants[name] = TenantState(name, self.default)
        return state

    # -- sessions ---------------------------------------------------------- #

    def admit_session(self, name: Optional[str]) -> TenantState:
        t = self.tenant(name)
        if self.draining:
            self._reject(t, "draining")
            raise Overloaded("server is draining; no new sessions")
        if t.sessions >= t.policy.max_sessions:
            self._reject(t, "max_sessions")
            raise TenantLimit(
                f"tenant {t.name!r} at its session cap "
                f"({t.policy.max_sessions}); retry after closing one")
        t.sessions += 1
        obs.count("server.sessions_opened", tenant=t.name)
        self._gauge(t)
        return t

    def release_session(self, t: TenantState) -> None:
        t.sessions = max(0, t.sessions - 1)
        self._gauge(t)

    # -- requests ---------------------------------------------------------- #

    def admit_request(self, name: Optional[str], item) -> TenantState:
        """Admit one op and enqueue ``item`` on the tenant's queue.

        Raises :class:`Overloaded` (retryable) when the bounded queue is
        full or the server is draining — the explicit backpressure signal.
        """
        t = self.tenant(name)
        if self.draining:
            self._reject(t, "draining")
            raise Overloaded("server is draining; retry against a peer "
                             "or after the restart")
        try:
            t.queue.put_nowait(item)
        except asyncio.QueueFull:
            self._reject(t, "queue_full")
            raise Overloaded(
                f"tenant {t.name!r} queue full "
                f"({t.policy.queue_depth} waiting, "
                f"{t.executing} executing); back off and retry") from None
        obs.count("server.requests", tenant=t.name)
        self._gauge(t)
        return t

    def start_execute(self, t: TenantState) -> None:
        t.executing += 1
        self._gauge(t)

    def finish_execute(self, t: TenantState) -> None:
        t.executing = max(0, t.executing - 1)
        self._gauge(t)

    # -- drain ------------------------------------------------------------- #

    def quiesced(self) -> bool:
        """True when no tenant holds queued or executing work."""
        return all(t.pending == 0 for t in self.tenants.values())

    # -- metrics ----------------------------------------------------------- #

    def _reject(self, t: TenantState, reason: str) -> None:
        obs.count("server.rejects", tenant=t.name, reason=reason)

    def _gauge(self, t: TenantState) -> None:
        if obs.enabled:
            obs.metrics.gauge("server.queue_depth", tenant=t.name).set(
                t.queue.qsize())
            obs.metrics.gauge("server.sessions", tenant=t.name).set(t.sessions)
