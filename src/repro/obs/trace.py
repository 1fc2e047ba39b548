"""Thread-aware span tracer with Chrome trace-event and JSON-lines export.

A *span* is one timed operation (a LibFS syscall, a kernel entry); spans
nest per thread, so a ``creat`` span contains the ``kernel.mmap`` instant
events and any inner syscall spans it triggered.  Completed spans are
buffered in memory and exported either as

* **JSON lines** — one span per line, nanosecond timestamps, loss-free
  round trip via :func:`read_jsonl`; or
* **Chrome trace-event format** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` / Perfetto load directly (complete ``"X"`` events
  with microsecond timestamps, plus ``"i"`` instant events).

The per-thread stack of open spans is the only one in the package.  A
closed span is appended to the buffer when tracing is on and handed to the
tracer's :class:`~repro.obs.profile.Profiler`, as its path and self time,
when profiling is on; either switch opens spans.

The tracer is off by default.  When off, :meth:`Tracer.span` returns a
shared no-op context manager — the cost is one attribute check, the same
pattern :mod:`repro.concurrency.failpoints` uses for production no-ops.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple


class NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def event(self, name: str, **args: object) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One in-flight timed operation on one thread."""

    __slots__ = ("tracer", "name", "category", "args", "tid", "depth",
                 "parent", "start_ns", "end_ns", "child_ns")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, object], tid: int, depth: int,
                 parent: Optional[str]):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.tid = tid
        self.depth = depth
        self.parent = parent
        self.start_ns = 0
        self.end_ns = 0
        #: wall time of the closed spans nested directly inside this one.
        self.child_ns = 0

    def event(self, name: str, **args: object) -> None:
        """Record an instant event inside this span (tracing only)."""
        if self.tracer.enabled:
            self.tracer._record_instant(name, self.category, self.tid, args)

    def __enter__(self) -> "Span":
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.args = dict(self.args)
            self.args["error"] = exc_type.__name__
        self.tracer._finish(self)
        return False


class Tracer:
    """Collects spans from every thread into one buffer.

    Thread names are normalised to small integers in arrival order so
    exported traces are stable and readable.  The buffer is bounded
    (``max_events``); overflow is counted, never raised.
    """

    def __init__(self, max_events: int = 1_000_000, profiler=None):
        self.enabled = False
        #: the :class:`~repro.obs.profile.Profiler` closed spans are
        #: charged to while it is enabled (None: spans are only traced).
        self.profiler = profiler
        self.max_events = max_events
        self.dropped = 0
        self._events: List[Dict] = []
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}
        self._local = threading.local()
        self._epoch_ns = time.perf_counter_ns()
        self.trace_id = f"t{self._epoch_ns:x}"

    # -- lifecycle ---------------------------------------------------------- #

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self._tids = {}
            self.dropped = 0
            self._epoch_ns = time.perf_counter_ns()
            self.trace_id = f"t{self._epoch_ns:x}"

    # -- recording ----------------------------------------------------------- #

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def stack_names(self) -> Tuple[str, ...]:
        """The calling thread's open span names, root first."""
        return tuple(sp.name for sp in self._stack())

    def span(self, name: str, category: str = "op", **args: object):
        """Open a nested span on the calling thread (context manager), if
        tracing or profiling is on."""
        if not (self.enabled or (self.profiler is not None
                                 and self.profiler.enabled)):
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1].name if stack else None
        sp = Span(self, name, category, args, self._tid(), len(stack), parent)
        stack.append(sp)
        return sp

    def instant(self, name: str, category: str = "event", **args: object) -> None:
        """Record a zero-duration event on the calling thread."""
        if not self.enabled:
            return
        self._record_instant(name, category, self._tid(), args)

    def _record_instant(self, name: str, category: str, tid: int,
                        args: Dict[str, object]) -> None:
        self._append({
            "ph": "i",
            "name": name,
            "cat": category,
            "ts_ns": time.perf_counter_ns() - self._epoch_ns,
            "dur_ns": 0,
            "tid": tid,
            "depth": 0,
            "parent": None,
            "args": dict(args),
        })

    def _finish(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        else:  # pragma: no cover - misnested exit; drop from wherever it is
            try:
                stack.remove(sp)
            except ValueError:
                pass
        total = sp.end_ns - sp.start_ns
        if stack:
            stack[-1].child_ns += total
        if self.enabled:
            self._append({
                "ph": "X",
                "name": sp.name,
                "cat": sp.category,
                "ts_ns": sp.start_ns - self._epoch_ns,
                "dur_ns": total,
                "tid": sp.tid,
                "depth": sp.depth,
                "parent": sp.parent,
                "args": sp.args,
            })
        prof = self.profiler
        if prof is not None and prof.enabled:
            prof.span_closed(tuple(s.name for s in stack) + (sp.name,),
                             max(0, total - sp.child_ns))

    def _append(self, event: Dict) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    # -- views / export ------------------------------------------------------ #

    def events(self) -> List[Dict]:
        with self._lock:
            return list(self._events)

    def to_chrome(self, process_name: str = "repro") -> Dict:
        """The ``chrome://tracing`` JSON object format."""
        trace_events: List[Dict] = [{
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        for ev in self.events():
            out = {
                "name": ev["name"],
                "cat": ev["cat"],
                "ph": ev["ph"],
                "ts": ev["ts_ns"] / 1000.0,   # microseconds
                "pid": 0,
                "tid": ev["tid"],
                "args": ev["args"],
            }
            if ev["ph"] == "X":
                out["dur"] = ev["dur_ns"] / 1000.0
            else:
                out["s"] = "t"  # thread-scoped instant
            trace_events.append(out)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str, process_name: str = "repro") -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(process_name), fh)
            fh.write("\n")

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(ev, sort_keys=True) for ev in self.events())

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            text = self.to_jsonl()
            if text:
                fh.write(text + "\n")


def read_jsonl(path: str) -> List[Dict]:
    """Round-trip loader for :meth:`Tracer.write_jsonl` output."""
    out: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
