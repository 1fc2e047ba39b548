"""Drive the DES: (file system, workload, thread count) → throughput.

A *workload* (see ``repro.workloads``) provides ``op_ctx(tid, i, nthreads)``
returning the symbolic operation context for thread ``tid``'s i-th
operation.  The runner expands contexts into phase lists via the per-FS
recipes, resolves symbolic locks/servers against the experiment's shared
namespace, applies NUMA latency, and runs the simulation for a fixed
horizon of virtual time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.perf.costmodel import COST, CostModel
from repro.perf.recipes import phases
from repro.perf.simulator import Experiment

#: Default virtual-time horizon per run (ns) — long enough to reach steady
#: state for every op class we simulate.
HORIZON_NS = 2_000_000.0


@dataclass
class RunResult:
    fs: str
    workload: str
    threads: int
    mops: float
    per_thread_ops: List[int]

    @property
    def ops_per_sec(self) -> float:
        return self.mops * 1e6


def _resolve_phase(exp: Experiment, cost: CostModel, tid: int, phase):
    kind = phase[0]
    if kind == "cpu":
        return [("delay", phase[1])]
    if kind == "fence":
        return [("delay", cost.fence)]
    if kind == "syscall":
        return [("delay", cost.syscall)]
    if kind == "lock":
        return [("lock", exp.lock(phase[1]))]
    if kind == "unlock":
        return [("unlock", exp.lock(phase[1]))]
    if kind == "use":
        _kind, name, service, capacity = phase
        return [("use", exp.server(name, capacity), service)]
    if kind in ("pm_r", "pm_w"):
        read = kind == "pm_r"
        nbytes = phase[1]
        out = [("delay", cost.pm_lat(tid, read))]
        out.append(
            ("use", exp.server("pm.bw", cost.pm_dimms), cost.pm_bw_time(nbytes, read))
        )
        return out
    raise ValueError(f"unknown symbolic phase {phase!r}")


def run_workload(
    fs: str,
    workload,
    threads: int,
    *,
    cost: CostModel = COST,
    horizon_ns: float = HORIZON_NS,
) -> RunResult:
    """Simulate ``threads`` identical workers of ``workload`` on ``fs``."""
    exp = Experiment()

    def op_stream(experiment: Experiment, tid: int) -> Iterator[list]:
        for i in itertools.count():
            ctx = workload.op_ctx(tid, i, threads)
            sym = phases(fs, ctx, cost, threads, tid)
            resolved: list = []
            for p in sym:
                resolved.extend(_resolve_phase(experiment, cost, tid, p))
            yield resolved

    stats = exp.run_threads(threads, op_stream, horizon_ns)
    return RunResult(
        fs=fs,
        workload=getattr(workload, "name", str(workload)),
        threads=threads,
        mops=exp.throughput_mops(horizon_ns),
        per_thread_ops=[t.ops for t in stats],
    )


def sweep(
    fs_names: Iterable[str],
    workload,
    thread_counts: Iterable[int],
    *,
    cost: CostModel = COST,
    horizon_ns: float = HORIZON_NS,
) -> Dict[str, Dict[int, float]]:
    """Throughput (Mops/s) for every (fs, threads) pair."""
    out: Dict[str, Dict[int, float]] = {}
    for fs in fs_names:
        out[fs] = {}
        for n in thread_counts:
            out[fs][n] = run_workload(
                fs, workload, n, cost=cost, horizon_ns=horizon_ns
            ).mops
    return out


@functools.cache
def table2_sweep() -> Tuple[Tuple[str, float, float], ...]:
    """Table 2's sweep: ``(workload, ArckFS Mops/s, ArckFS+ Mops/s)`` for
    every FxMark metadata workload at 48 threads under the default cost
    model.  Virtual time makes the result a constant of the code, so the ~20 s
    of simulation is paid once per process however many consumers (the
    ``table2`` experiment, the paper-target tests) read it."""
    from repro.workloads.fxmark import FXMARK, METADATA_WORKLOADS

    return tuple(
        (name,
         run_workload("arckfs", FXMARK[name], 48).mops,
         run_workload("arckfs+", FXMARK[name], 48).mops)
        for name in METADATA_WORKLOADS)
