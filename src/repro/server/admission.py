"""Per-tenant admission control: session caps, a per-read bound, draining.

The server's trusted-coordinator role (mirroring the kernel side of the
ArckFS trust split) starts here.  Admission decides three things and
nothing else:

* **session cap** — ``session.open`` past ``max_sessions`` is refused
  :class:`~repro.errors.TenantLimit`;
* **per-read bound** — a data op is refused
  :class:`~repro.errors.Overloaded` once ``max_burst`` of its tenant's ops
  have already run out of the socket read that brought it;
* **draining** — a draining server refuses new sessions and new ops,
  ``Overloaded``.

Every refusal is *typed and retryable* — never a silent drop.  An admitted
op runs at once, where it was read (:mod:`.server`), so there is nothing to
queue: the bound is a count, reset when the read ends, and it is what keeps
one pipelining peer from holding the loop, or filling its own write buffer,
for longer than ``max_burst`` ops.  Everything runs on the server's single
asyncio loop, so the state needs no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.errors import Overloaded, TenantLimit


@dataclass(frozen=True)
class TenantPolicy:
    """Admission limits for one tenant."""

    #: Concurrent open sessions (``session.open`` beyond this → TenantLimit).
    max_sessions: int = 1024
    #: Ops of this tenant one socket read may run (beyond this → Overloaded).
    max_burst: int = 64


class TenantState:
    """One tenant's live admission state."""

    def __init__(self, name: str, policy: TenantPolicy):
        self.name = name
        self.policy = policy
        self.sessions = 0
        #: Times a session of this tenant had to recall an inode from
        #: another (the sharing the tenant's own sessions cause).
        self.recalls = 0

    def __repr__(self) -> str:
        return f"<TenantState {self.name!r} sessions={self.sessions}>"


class AdmissionController:
    """Admits sessions and requests against per-tenant policies."""

    def __init__(self, policies: Dict[str, TenantPolicy]):
        self.tenants: Dict[str, TenantState] = {
            name: TenantState(name, pol) for name, pol in policies.items()
        }
        self.draining = False
        #: Ops admitted out of the read in progress, by tenant (empty
        #: between reads).
        self._burst: Dict[TenantState, int] = {}

    # -- tenants ----------------------------------------------------------- #

    def tenant(self, name: Optional[str]) -> TenantState:
        if name is None:
            raise TenantLimit("request names no tenant")
        state = self.tenants.get(name)
        if state is None:
            raise TenantLimit(f"unknown tenant {name!r}")
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
        return t

    def release_session(self, t: TenantState) -> None:
        t.sessions = max(0, t.sessions - 1)

    # -- requests ---------------------------------------------------------- #

    def admit_request(self, t: TenantState) -> None:
        """Admit one data op of ``t`` out of the read in progress.

        Raises :class:`Overloaded` (retryable) when the read has already
        run the tenant's bound or the server is draining — the explicit
        backpressure signal.
        """
        if self.draining:
            self._reject(t, "draining")
            raise Overloaded("server is draining; retry against a peer "
                             "or after the restart")
        burst = self._burst.get(t, 0)
        if burst >= t.policy.max_burst:
            self._reject(t, "max_burst")
            raise Overloaded(
                f"tenant {t.name!r} over its per-read bound "
                f"({t.policy.max_burst} ops already run out of this "
                f"read); back off and retry")
        self._burst[t] = burst + 1
        obs.count("server.requests", tenant=t.name)

    def end_read(self) -> None:
        """The read that ``admit_request`` counted against is over."""
        self._burst.clear()

    # -- metrics ----------------------------------------------------------- #

    def _reject(self, t: TenantState, reason: str) -> None:
        obs.count("server.rejects", tenant=t.name, reason=reason)
