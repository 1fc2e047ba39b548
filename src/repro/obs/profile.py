"""Call-path attribution profiler: calls and self wall time per call path.

The tracer (``repro.obs.trace``) answers "what happened, when"; this module
answers "where does the time go".  It keeps no stack of its own: it reads
the spans :func:`repro.obs.span` opens on the tracer's one per-thread stack.
While profiling is on, each span that closes is charged to its call *path*
(root→leaf name tuple) — LibFS syscall wrappers, the verifier, fsck
phases — and every path has two accumulators:

* ``calls`` — how many spans closed on that path;
* ``wall_ns`` — **self** wall time (children's time is subtracted, so the
  per-path numbers sum to total wall time without double counting).

The profiler has one clock, the host's.  Modeled (cost-model / DES) time
is never charged here: ``repro.perf`` prices it from the counts the
functional layers record.

Export is Brendan Gregg's **collapsed-stack** format — one line per path,
``root;child;leaf <value>`` with integer ns values — which flamegraph.pl,
speedscope and inferno load directly.  :func:`read_collapsed` is the
loss-free round-trip loader.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

Path = Tuple[str, ...]


def _clean(name: str) -> str:
    """Make a span name safe for the collapsed format (no ';', no spaces)."""
    return name.replace(";", ":").replace(" ", "_")


class PathStat:
    """Accumulators for one call path."""

    __slots__ = ("calls", "wall_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_ns = 0

    def as_dict(self) -> Dict[str, int]:
        return {"calls": self.calls, "wall_ns": self.wall_ns}


class Profiler:
    """Process-wide call-path accumulator (thread-safe, off by default)."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._paths: Dict[Path, PathStat] = {}

    # -- lifecycle ---------------------------------------------------------- #

    def reset(self) -> None:
        with self._lock:
            self._paths = {}

    # -- recording ----------------------------------------------------------- #

    def span_closed(self, path: Path, self_ns: int) -> None:
        """Count one closed span on ``path`` (root first) and its self wall
        time: the tracer calls this as each span exits."""
        with self._lock:
            st = self._paths.get(path)
            if st is None:
                st = self._paths[path] = PathStat()
            st.calls += 1
            st.wall_ns += self_ns

    # -- views / export ------------------------------------------------------ #

    def paths(self) -> Dict[Path, Dict[str, int]]:
        with self._lock:
            return {p: s.as_dict() for p, s in self._paths.items()}

    def total(self) -> int:
        """Total self wall ns over every path."""
        return sum(s["wall_ns"] for s in self.paths().values())

    def collapsed(self) -> str:
        """Collapsed-stack text: ``a;b;c <ns>`` per path, self values."""
        lines = []
        for path, st in sorted(self.paths().items()):
            if st["wall_ns"] <= 0:
                continue
            lines.append(f"{';'.join(_clean(n) for n in path)} {st['wall_ns']}")
        return "\n".join(lines)

    def write_collapsed(self, path: str) -> None:
        text = self.collapsed()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")

    def report(self, top: int = 12) -> str:
        """Top self-time paths as a table."""
        paths = self.paths()
        total = sum(s["wall_ns"] for s in paths.values())
        lines = [f"== profile: top wall-time paths (total {total:,} ns) =="]
        ranked = sorted(paths.items(), key=lambda kv: kv[1]["wall_ns"],
                        reverse=True)
        for path, st in ranked[:top]:
            if st["wall_ns"] <= 0:
                continue
            pct = st["wall_ns"] / total * 100.0 if total else 0.0
            lines.append(f"  {st['wall_ns']:>14,} ns {pct:5.1f}%  "
                         f"x{st['calls']:<6} {';'.join(path)}")
        return "\n".join(lines)


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
