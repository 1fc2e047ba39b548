"""Call-path attribution profiler: wall *and* simulated time per call path.

The tracer (``repro.obs.trace``) answers "what happened, when"; this module
answers "where does the time go".  It keeps no stack of its own: it reads
the spans :func:`repro.obs.span` opens on the tracer's one per-thread stack.
While profiling is on, each span that closes is charged to its call *path*
(root→leaf name tuple) — LibFS syscall wrappers, the pipelined verifier,
fsck phases — and every path has three accumulators:

* ``calls`` — how many spans closed on that path;
* ``wall_ns`` — **self** wall time (children's time is subtracted, so the
  per-path numbers sum to total wall time without double counting);
* ``sim_ns`` — simulated time charged via :func:`repro.obs.charge` (to the
  calling thread's open spans) or :meth:`Profiler.charge_path`.  This is the
  calibrated cost-model / DES clock — deterministic, host-independent — and
  the number the repository's performance claims are argued in.

Export is Brendan Gregg's **collapsed-stack** format — one line per path,
``root;child;leaf <value>`` with integer ns values — which flamegraph.pl,
speedscope and inferno load directly.  :func:`read_collapsed` is the
loss-free round-trip loader.

For a pipeline of real threads (the allocator's per-thread page pools),
flat paths are not enough: the question is "what is the *slowest worker*
doing".  :meth:`Profiler.pipeline` returns a :class:`PipelineProfile` that
accumulates per-worker, per-stage simulated charges;
:meth:`PipelineProfile.critical_path` reports the slowest worker's stage
breakdown and what fraction of its time the named stages explain.
"""

from __future__ import annotations

import threading
from typing import Dict, Sequence, Tuple

Path = Tuple[str, ...]


def _clean(name: str) -> str:
    """Make a span name safe for the collapsed format (no ';', no spaces)."""
    return name.replace(";", ":").replace(" ", "_")


class PathStat:
    """Accumulators for one call path."""

    __slots__ = ("calls", "wall_ns", "sim_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_ns = 0
        self.sim_ns = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "wall_ns": self.wall_ns,
                "sim_ns": self.sim_ns}


class PipelineProfile:
    """Per-worker stage charges for one named parallel phase family.

    Workers are identified by any hashable-as-string key (shard index,
    thread name); stages by name.  ``add_worker_total`` lets the caller
    account time the named stages do not explain (dispatch overhead, lock
    handoff) so :meth:`critical_path` can report an honest
    ``attributed_fraction``.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._stages: Dict[str, Dict[str, float]] = {}
        self._totals: Dict[str, float] = {}

    def charge(self, worker: object, stage: str, sim_ns: float) -> None:
        """Charge ``sim_ns`` of stage work to one worker."""
        w = str(worker)
        with self._lock:
            stages = self._stages.setdefault(w, {})
            stages[stage] = stages.get(stage, 0.0) + sim_ns

    def add_worker_total(self, worker: object, sim_ns: float) -> None:
        """Add to a worker's *total* busy time (stages + overhead)."""
        w = str(worker)
        with self._lock:
            self._totals[w] = self._totals.get(w, 0.0) + sim_ns

    def worker_total(self, worker: object) -> float:
        w = str(worker)
        with self._lock:
            return max(self._totals.get(w, 0.0),
                       sum(self._stages.get(w, {}).values()))

    def critical_path(self) -> Dict[str, object]:
        """The slowest worker's breakdown, JSON-ready.

        ``attributed_fraction`` is (named stage time) / (total busy time)
        for that worker — how much of the critical path the profiler can
        explain by name.
        """
        with self._lock:
            workers = set(self._stages) | set(self._totals)
            stages = {w: dict(self._stages.get(w, {})) for w in workers}
            totals = dict(self._totals)
        per_worker = {
            w: max(totals.get(w, 0.0), sum(stages[w].values()))
            for w in workers
        }
        if per_worker:
            worst = max(sorted(per_worker), key=lambda w: per_worker[w])
            total = per_worker[worst]
            named = sum(stages[worst].values())
            attributed = named / total if total else 1.0
            worst_stages = stages[worst]
        else:
            worst, total, attributed, worst_stages = None, 0.0, 1.0, {}
        return {
            "pipeline": self.name,
            "workers": len(workers),
            "worker": worst,
            "total_ns": total,
            "stages": worst_stages,
            "attributed_fraction": attributed,
        }

    def report(self) -> str:
        """Human-readable critical-path rendering."""
        cp = self.critical_path()
        lines = [f"pipeline {self.name}: {cp['workers']} worker(s)"]
        if cp["worker"] is None:
            lines.append("  (no charges recorded)")
            return "\n".join(lines)
        lines.append(
            f"  critical worker {cp['worker']}: {cp['total_ns']:,.0f} ns "
            f"simulated, "
            f"{cp['attributed_fraction'] * 100.0:.1f}% attributed"
        )
        for stage in sorted(cp["stages"], key=cp["stages"].get, reverse=True):
            lines.append(f"    {stage:<18} {cp['stages'][stage]:>14,.0f} ns")
        return "\n".join(lines)


class Profiler:
    """Process-wide call-path accumulator (thread-safe, off by default)."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._paths: Dict[Path, PathStat] = {}
        self._pipelines: Dict[str, PipelineProfile] = {}

    # -- lifecycle ---------------------------------------------------------- #

    def reset(self) -> None:
        with self._lock:
            self._paths = {}
            self._pipelines = {}

    # -- recording ----------------------------------------------------------- #

    def _add(self, path: Path, *, calls: int = 0, wall_ns: int = 0,
             sim_ns: float = 0.0) -> None:
        with self._lock:
            st = self._paths.get(path)
            if st is None:
                st = self._paths[path] = PathStat()
            st.calls += calls
            st.wall_ns += wall_ns
            st.sim_ns += sim_ns

    def span_closed(self, path: Path, self_ns: int) -> None:
        """Count one closed span on ``path`` (root first) and its self wall
        time: the tracer calls this as each span exits."""
        self._add(path, calls=1, wall_ns=self_ns)

    def charge_path(self, path: Sequence[str], sim_ns: float,
                    calls: int = 0) -> None:
        """Charge simulated ns to an explicit path: ``obs.charge`` passes
        the calling thread's open spans, DES runs a path of their own
        (their threads are virtual)."""
        if not self.enabled:
            return
        self._add(tuple(path), sim_ns=sim_ns, calls=calls)

    def pipeline(self, name: str) -> PipelineProfile:
        """Get-or-create the named :class:`PipelineProfile`."""
        with self._lock:
            p = self._pipelines.get(name)
            if p is None:
                p = self._pipelines[name] = PipelineProfile(name)
            return p

    # -- views / export ------------------------------------------------------ #

    def paths(self) -> Dict[Path, Dict[str, float]]:
        with self._lock:
            return {p: s.as_dict() for p, s in self._paths.items()}

    def pipelines(self) -> Dict[str, PipelineProfile]:
        with self._lock:
            return dict(self._pipelines)

    def total(self, weight: str = "wall") -> float:
        key = _weight_key(weight)
        return sum(s[key] for s in self.paths().values())

    def collapsed(self, weight: str = "wall") -> str:
        """Collapsed-stack text: ``a;b;c <ns>`` per path, self values."""
        key = _weight_key(weight)
        lines = []
        for path, st in sorted(self.paths().items()):
            v = int(round(st[key]))
            if v <= 0:
                continue
            lines.append(f"{';'.join(_clean(n) for n in path)} {v}")
        return "\n".join(lines)

    def write_collapsed(self, path: str, weight: str = "wall") -> None:
        text = self.collapsed(weight)
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")

    def report(self, top: int = 12, weight: str = "wall") -> str:
        """Top self-time paths as a table."""
        key = _weight_key(weight)
        paths = self.paths()
        unit = "wall" if key == "wall_ns" else "simulated"
        total = sum(s[key] for s in paths.values())
        lines = [f"== profile: top {unit}-time paths "
                 f"(total {total:,.0f} ns) =="]
        ranked = sorted(paths.items(), key=lambda kv: kv[1][key],
                        reverse=True)
        for path, st in ranked[:top]:
            if st[key] <= 0:
                continue
            pct = st[key] / total * 100.0 if total else 0.0
            lines.append(f"  {st[key]:>14,.0f} ns {pct:5.1f}%  "
                         f"x{st['calls']:<6} {';'.join(path)}")
        return "\n".join(lines)


def _weight_key(weight: str) -> str:
    try:
        return {"wall": "wall_ns", "sim": "sim_ns"}[weight]
    except KeyError:
        raise ValueError(f"weight must be 'wall' or 'sim', not {weight!r}")


def read_collapsed(path: str) -> Dict[Path, int]:
    """Round-trip loader for :meth:`Profiler.write_collapsed` output."""
    out: Dict[Path, int] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            stack, _, value = line.rpartition(" ")
            frames = tuple(stack.split(";"))
            out[frames] = out.get(frames, 0) + int(value)
    return out
