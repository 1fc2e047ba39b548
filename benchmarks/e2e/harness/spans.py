"""In-memory span recording around the harness's calls into each layer.

Spans live in a list until the run ends and are written once, in
Chrome-trace form (``chrome://tracing`` / Perfetto ``X`` events).  The
program under test is not edited: a span brackets a call the harness
makes, so a layer's span includes everything below it, and its self time
(:func:`harness.stats.self_times`) is what the layer itself adds.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Sequence

from .stats import Span, self_times


class Recorder:
    """Spans of one closed loop (one client); not shared between loops."""

    def __init__(self) -> None:
        #: ``[name, op_id, parent, start_ns, end_ns]`` per span.
        self.spans: List[list] = []
        self._op_id = -1
        self._parent = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._op_id, self._parent, 0, 0])
        self._parent = idx
        return idx

    def close(self, idx: int, start_ns: int, end_ns: int) -> None:
        span = self.spans[idx]
        span[3], span[4] = start_ns, end_ns
        self._parent = span[2]

    def open_op(self, name: str, op_id: int) -> int:
        """The root span of one logical op; stage spans opened before its
        :meth:`close` become its children."""
        self._op_id = op_id
        self._parent = -1
        return self.open(name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span of ``name`` around every call."""
        def spanned(*args):
            idx = self.open(name)
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                self.close(idx, start, perf_counter_ns())
        return spanned

    def awrap(self, fn: Callable, name_of: Callable[..., str]) -> Callable:
        """Like :meth:`wrap` for a coroutine function; the span's name is
        computed from the call's arguments."""
        async def spanned(*args):
            idx = self.open(name_of(*args))
            start = perf_counter_ns()
            try:
                return await fn(*args)
            finally:
                self.close(idx, start, perf_counter_ns())
        return spanned

    def durations_us(self, name: str, clock) -> List[float]:
        """Durations of the spans called ``name``, on ``clock``'s
        reference host (the trace file keeps the wall-clock stamps)."""
        return [clock.ref_us(s[3], s[4]) for s in self.spans if s[0] == name]


def merge(recorders: Sequence[Recorder]) -> List[Span]:
    """One span list from several recorders, parent indices rebased."""
    out: List[Span] = []
    for rec in recorders:
        base = len(out)
        for name, op_id, parent, start, end in rec.spans:
            out.append((name, op_id, parent + base if parent >= 0 else -1,
                        start, end))
    return out


def write_chrome_trace(path: str, rungs: Dict[str, List[Span]]) -> None:
    """All rungs' spans in one Chrome-trace file: one ``pid`` per rung,
    ``args`` carrying ``op_id``, ``parent`` and the span's self time."""
    events = []
    for pid, (rung, spans) in enumerate(rungs.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": rung}})
        for idx, ((name, op_id, parent, start, end), self_ns) in enumerate(
                zip(spans, self_times(spans))):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": idx, "op_id": op_id, "parent": parent,
                         "self_us": self_ns / 1e3}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
