"""Closed-loop load generator: the "millions of users" driver.

N logical clients per tenant, each a closed loop — open a session, then
issue one op at a time from a weighted open/read/write/rename mix, waiting
for every response before the next request.  Backpressure therefore does
what it should: an :class:`~repro.errors.Overloaded` rejection backs the
client off (bounded exponential backoff) and the op is re-issued, never
lost.  Every client seeds its own RNG from ``(seed, tenant, index)``, so
the *op stream* is reproducible run to run even though the interleaving is
not.

Accounting is end-to-end and paranoid by design: the report can certify
**zero lost and zero duplicated responses** because every request id maps
to exactly one future (:class:`~repro.server.client.ServerClient`), and
the generator counts issued ops, completions, retries, reopens and
unmatched frames separately.  ``repro loadgen`` exits 1 unless every op
completed and every response matched, and the fleet test in
``tests/integration/test_server.py`` holds the same invariants.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.server import protocol
from repro.server.client import ServerClient, SessionHandle

#: Default op mix (weights, not probabilities).
DEFAULT_MIX = {"read": 4, "write": 3, "open": 2, "rename": 1}


@dataclass
class LoadConfig:
    tenants: Sequence[str] = ("t0", "t1", "t2", "t3")
    clients_per_tenant: int = 25
    ops_per_client: int = 8
    payload: int = 1024
    mix: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_MIX))
    #: TCP connections per tenant; logical clients multiplex over them.
    connections_per_tenant: int = 8
    seed: int = 1337
    retries: int = 64
    backoff: float = 0.002

    @property
    def total_clients(self) -> int:
        return len(self.tenants) * self.clients_per_tenant

    @property
    def total_ops(self) -> int:
        return self.total_clients * self.ops_per_client


@dataclass
class LoadReport:
    """What happened, with the invariants ``repro loadgen`` exits on."""

    config: LoadConfig
    elapsed: float
    completed: Dict[str, int]            # tenant -> successful ops
    failures: Dict[str, int]             # tenant -> ops that did not complete
    retries: int                         # retryable rejections absorbed
    reopens: int                         # sessions reopened after eviction
    requests_sent: int
    responses_received: int
    unmatched_responses: int             # dup/unknown ids (must stay 0)
    lost_responses: int                  # futures still pending (must stay 0)
    latency_ns: Dict[str, Dict[str, float]]  # tenant -> summary

    @property
    def total_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def ops_per_sec(self) -> float:
        return self.total_completed / self.elapsed if self.elapsed else 0.0

    def render(self) -> str:
        c = self.config
        lines = [
            "== server load: closed-loop mixed workload ==",
            f"{len(c.tenants)} tenant(s) x {c.clients_per_tenant} client(s) "
            f"x {c.ops_per_client} op(s)  "
            f"[mix {','.join(f'{k}={v}' for k, v in sorted(c.mix.items()))}]",
            f"completed {self.total_completed}/{c.total_ops} ops in "
            f"{self.elapsed:.2f}s ({self.ops_per_sec:,.0f} ops/s), "
            f"{self.retries} retries after backpressure, "
            f"{self.reopens} session reopen(s)",
            f"responses: {self.responses_received} received / "
            f"{self.requests_sent} sent, {self.unmatched_responses} "
            f"unmatched, {self.lost_responses} lost",
            "",
            f"{'tenant':<10}{'ops':>8}{'fail':>6}{'p50 us':>10}"
            f"{'p95 us':>10}{'p99 us':>10}",
            "-" * 54,
        ]
        for t in c.tenants:
            lat = self.latency_ns.get(t, {})
            lines.append(
                f"{t:<10}{self.completed.get(t, 0):>8}"
                f"{self.failures.get(t, 0):>6}"
                f"{lat.get('p50', 0) / 1e3:>10.0f}"
                f"{lat.get('p95', 0) / 1e3:>10.0f}"
                f"{lat.get('p99', 0) / 1e3:>10.0f}")
        return "\n".join(lines)


def _percentile(sorted_ns: List[int], q: float) -> float:
    if not sorted_ns:
        return 0.0
    idx = min(len(sorted_ns) - 1, int(q / 100.0 * len(sorted_ns)))
    return float(sorted_ns[idx])


class _Client:
    """One closed-loop logical client."""

    def __init__(self, cfg: LoadConfig, tenant: str, index: int,
                 conn: ServerClient):
        self.cfg = cfg
        self.tenant = tenant
        self.index = index
        self.handle = SessionHandle(conn, tenant)
        self.rng = random.Random(f"{cfg.seed}:{tenant}:{index}")
        self.root = f"/lg/c{index}"
        self.files = [f"{self.root}/a.dat", f"{self.root}/b.dat"]
        self.completed = 0
        self.latency_ns: List[int] = []

    async def _call(self, method: str, **params):
        return await self.handle.call(
            method, retries=self.cfg.retries, backoff=self.cfg.backoff,
            **params)

    async def setup(self) -> None:
        await self._call("makedirs", path=self.root)
        payload = protocol.pack_bytes(b"\xc3" * self.cfg.payload)
        for path in self.files:
            await self._call("write_file", path=path, data=payload)

    async def one_op(self) -> None:
        ops, weights = zip(*sorted(self.cfg.mix.items()))
        name = self.rng.choices(ops, weights=weights)[0]
        payload = protocol.pack_bytes(
            bytes([self.rng.randrange(256)]) * self.cfg.payload)
        t0 = time.perf_counter_ns()
        if name == "read":
            await self._call("read_file", path=self.rng.choice(self.files))
        elif name == "write":
            await self._call("write_file", path=self.rng.choice(self.files),
                             data=payload)
        elif name == "open":
            fd = (await self._call("open", path=self.rng.choice(self.files)))
            await self._call("close", fd=fd["fd"])
        elif name == "rename":
            tmp = f"{self.root}/r.dat"
            src = self.files[0]
            await self._call("rename", old=src, new=tmp)
            await self._call("rename", old=tmp, new=src)
        elif name == "stat":
            await self._call("stat", path=self.rng.choice(self.files))
        else:
            raise ValueError(f"unknown mix op {name!r}")
        self.latency_ns.append(time.perf_counter_ns() - t0)
        obs.count("loadgen.ops", tenant=self.tenant, op=name)

    async def run(self) -> None:
        """Set up, then run ops until one fails: every op not completed
        counts as failed, whether setup or an earlier op stopped it."""
        try:
            await self.setup()
            for _ in range(self.cfg.ops_per_client):
                await self.one_op()
                self.completed += 1
        finally:
            try:
                await self.handle.close()
            except Exception:
                pass


async def run_load(host: str, port: int,
                   cfg: Optional[LoadConfig] = None) -> LoadReport:
    """Drive a server with the closed-loop fleet; returns the report."""
    cfg = cfg or LoadConfig()
    conns: Dict[str, List[ServerClient]] = {}
    for t in cfg.tenants:
        n = max(1, min(cfg.connections_per_tenant, cfg.clients_per_tenant))
        conns[t] = [await ServerClient.connect(host, port) for _ in range(n)]
    clients = [
        _Client(cfg, t, i, conns[t][i % len(conns[t])])
        for t in cfg.tenants for i in range(cfg.clients_per_tenant)
    ]
    t0 = time.perf_counter()
    await asyncio.gather(*(c.run() for c in clients), return_exceptions=True)
    elapsed = time.perf_counter() - t0

    completed: Dict[str, int] = {t: 0 for t in cfg.tenants}
    failures: Dict[str, int] = {t: 0 for t in cfg.tenants}
    lat: Dict[str, List[int]] = {t: [] for t in cfg.tenants}
    reopens = 0
    for c in clients:
        completed[c.tenant] += c.completed
        failures[c.tenant] += cfg.ops_per_client - c.completed
        lat[c.tenant].extend(c.latency_ns)
        reopens += c.handle.reopens
    sent = received = unmatched = lost = retries = 0
    for t in cfg.tenants:
        for conn in conns[t]:
            sent += conn.sent
            received += conn.received
            unmatched += conn.unmatched
            retries += conn.retries
            lost += len(conn._pending)
            await conn.close()
    latency = {}
    for t, samples in lat.items():
        samples.sort()
        latency[t] = {
            "count": len(samples),
            "p50": _percentile(samples, 50),
            "p95": _percentile(samples, 95),
            "p99": _percentile(samples, 99),
        }
    return LoadReport(
        config=cfg, elapsed=elapsed, completed=completed, failures=failures,
        retries=retries, reopens=reopens, requests_sent=sent,
        responses_received=received, unmatched_responses=unmatched,
        lost_responses=lost, latency_ns=latency)


def make_volumes(tenants: Sequence[str], *, size: int = 64 * 1024 * 1024,
                 inode_count: int = 4096) -> Dict[str, Volume]:
    """One fresh volume per tenant, named after it (metrics label)."""
    return {
        t: Volume.create(size, VolumeConfig(inode_count=inode_count, name=t))
        for t in tenants
    }
