"""A small discrete-event simulator (virtual time in nanoseconds).

Processes are Python generators that ``yield`` requests:

* ``("delay", ns)`` — consume CPU / fixed-latency time;
* ``("lock", lock)`` / ``("unlock", lock)`` — FIFO mutual exclusion;
* ``("use", server, ns)`` — occupy one slot of a finite-capacity FIFO
  server for ``ns`` (PM DIMM channels, delegation threads, a cache line).

The engine resumes a process when its request is satisfied.  Throughput
experiments run N identical workload threads for a simulated horizon and
report completed operations per second.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple


class Simulator:
    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("negative delay")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def run(self, until: Optional[float] = None) -> None:
        while self._heap:
            at, _seq, fn = self._heap[0]
            if until is not None and at > until:
                break
            heapq.heappop(self._heap)
            self.now = at
            fn()
        if until is not None and self.now < until:
            self.now = until


class Lock:
    """FIFO mutual-exclusion lock inside the simulation."""

    __slots__ = ("name", "held", "waiters", "contended")

    def __init__(self, name: str):
        self.name = name
        self.held = False
        self.waiters: List[Callable[[], None]] = []
        self.contended = 0

    def acquire(self, sim: Simulator, resume: Callable[[], None]) -> None:
        if not self.held:
            self.held = True
            sim.schedule(0, resume)
        else:
            self.contended += 1
            self.waiters.append(resume)

    def release(self, sim: Simulator) -> None:
        if self.waiters:
            nxt = self.waiters.pop(0)
            sim.schedule(0, nxt)
        else:
            self.held = False


class Server:
    """Finite-capacity FIFO server (k identical slots)."""

    __slots__ = ("name", "capacity", "busy", "queue")

    def __init__(self, name: str, capacity: int = 1):
        self.name = name
        self.capacity = capacity
        self.busy = 0
        self.queue: List[Tuple[float, Callable[[], None]]] = []

    def use(self, sim: Simulator, service: float, resume: Callable[[], None]) -> None:
        if self.busy < self.capacity:
            self._start(sim, service, resume)
        else:
            self.queue.append((service, resume))

    def _start(self, sim: Simulator, service: float, resume: Callable[[], None]) -> None:
        self.busy += 1

        def done() -> None:
            self.busy -= 1
            resume()
            if self.queue and self.busy < self.capacity:
                svc, nxt = self.queue.pop(0)
                self._start(sim, svc, nxt)

        sim.schedule(service, done)


@dataclass
class ThreadStats:
    tid: int
    ops: int = 0
    op_time: float = 0.0


class _Driver:
    """Runs one generator process, interpreting its requests."""

    def __init__(self, sim: Simulator, gen: Generator):
        self.sim = sim
        self.gen = gen

    def start(self) -> None:
        self.sim.schedule(0, self._step)

    def _step(self) -> None:
        try:
            req = next(self.gen)
        except StopIteration:
            return
        kind = req[0]
        if kind == "delay":
            self.sim.schedule(req[1], self._step)
        elif kind == "lock":
            req[1].acquire(self.sim, self._step)
        elif kind == "unlock":
            req[1].release(self.sim)
            self.sim.schedule(0, self._step)
        elif kind == "use":
            req[1].use(self.sim, req[2], self._step)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request {req!r}")


class Experiment:
    """N identical workload threads over a shared resource namespace."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self._locks: Dict[str, Lock] = {}
        self._servers: Dict[str, Server] = {}
        self.threads: List[ThreadStats] = []

    def lock(self, name: str) -> Lock:
        lk = self._locks.get(name)
        if lk is None:
            lk = self._locks[name] = Lock(name)
        return lk

    def server(self, name: str, capacity: int = 1) -> Server:
        sv = self._servers.get(name)
        if sv is None:
            sv = self._servers[name] = Server(name, capacity)
        return sv

    def run_threads(
        self,
        nthreads: int,
        op_stream: Callable[["Experiment", int], Iterator[list]],
        horizon_ns: float,
    ) -> List[ThreadStats]:
        """Each thread repeatedly executes ops from its stream until the
        horizon; returns per-thread completed-op counts."""
        self.threads = [ThreadStats(tid) for tid in range(nthreads)]

        def thread_proc(tid: int) -> Generator:
            stats = self.threads[tid]
            stream = op_stream(self, tid)
            for phases in stream:
                start = self.sim.now
                if start >= horizon_ns:
                    return
                for phase in phases:
                    yield phase
                if self.sim.now <= horizon_ns:
                    # Only completions inside the horizon count toward
                    # throughput (ops straddling the edge are discarded).
                    stats.ops += 1
                    stats.op_time += self.sim.now - start
                else:
                    return

        for tid in range(nthreads):
            _Driver(self.sim, thread_proc(tid)).start()
        self.sim.run()
        return self.threads

    def throughput_mops(self, horizon_ns: float) -> float:
        """Completed operations per second, in millions."""
        total = sum(t.ops for t in self.threads)
        return total / (horizon_ns / 1e9) / 1e6
