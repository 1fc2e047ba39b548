"""Unified observability: op tracing, metrics, kernel-crossing profiling.

The counting lens the paper itself used: kernel crossings, persistence
fences and lock behaviour are how the six ArckFS bugs were found and how
the ≈97 % performance-preservation claim is argued.  This package gives the
reproduction that lens as a first-class subsystem:

* :data:`tracer` — a thread-aware span tracer (``repro.obs.trace``) with
  JSON-lines and Chrome ``chrome://tracing`` exporters;
* :data:`metrics` — a registry of counters / gauges / fixed-bucket latency
  histograms (``repro.obs.metrics``);
* instrumentation woven through the stack: LibFS syscalls open spans and
  record latency, every :class:`~repro.kernel.controller.KernelController`
  entry bumps ``kernel.crossings{reason=...}``, spin/rw locks record
  acquisitions and wait time, failpoint hits surface as
  ``failpoints.hit{name=...}``, and PM device counters republish as
  ``pm.*``.

**Cost when disabled (the default): one module-attribute check** at every
instrumented site — the same pattern as
:mod:`repro.concurrency.failpoints`.  Nothing is allocated, no lock is
taken, no timestamp is read; Tier-1 perf assertions and the paper-number
benches see the uninstrumented behaviour.

Enable explicitly::

    from repro import obs
    obs.enable(trace=True)         # metrics + span collection
    ...                            # run the workload
    obs.disable()
    obs.tracer.write_chrome("trace.json")
    print(obs.metrics.snapshot()["counters"]["kernel.crossings"])

or from the command line::

    python -m repro trace fxmark:MWCL --out trace.json
    python -m repro metrics fxmark:MWCL
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Dict, Iterator, Optional

from repro.obs.metrics import (  # noqa: F401  (re-exported API)
    LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_snapshot,
)
from repro.obs.profile import (  # noqa: F401  (re-exported API)
    PipelineProfile,
    Profiler,
    SpanFrame,
    read_collapsed,
)
from repro.obs.trace import NULL_SPAN, Tracer, read_jsonl  # noqa: F401

#: Master switch checked by every instrumented call site (module attribute,
#: so a hit costs one dict lookup).  Toggle via :func:`enable`/:func:`disable`.
enabled = False

#: Process-wide singletons.
tracer = Tracer()
metrics = MetricsRegistry()
profiler = Profiler()


def enable(trace: bool = False, profile: bool = False) -> None:
    """Turn instrumentation on; ``trace=True`` also collects spans,
    ``profile=True`` also attributes time to call paths."""
    global enabled
    tracer.enabled = trace
    profiler.enabled = profile
    enabled = True


def disable() -> None:
    """Return every instrumented site to its no-op fast path."""
    global enabled
    enabled = False
    tracer.enabled = False
    profiler.enabled = False


def reset() -> None:
    """Drop all collected metrics and spans (state, not the enabled flag)."""
    metrics.reset()
    tracer.reset()
    profiler.reset()


def is_enabled() -> bool:
    return enabled


# --------------------------------------------------------------------------- #
# Ambient dimensional labels (per-thread).  The repro.api facade sets
# {app_id, volume} around every forwarded session call; instrumentation
# helpers merge the ambient set into their own labels so each counter and
# histogram can be sliced per tenant.  Explicit labels win on collision.
# --------------------------------------------------------------------------- #

_context = threading.local()


def set_context(**labels: object) -> None:
    """Set ambient labels on the calling thread (``None`` removes a key)."""
    cur = dict(getattr(_context, "labels", None) or {})
    for k, v in labels.items():
        if v is None:
            cur.pop(k, None)
        else:
            cur[k] = v
    _context.labels = cur or None


def clear_context() -> None:
    _context.labels = None


def context_labels() -> Dict[str, object]:
    """The calling thread's ambient labels (a copy; empty when unset)."""
    return dict(getattr(_context, "labels", None) or {})


@contextlib.contextmanager
def scoped_context(**labels: object) -> Iterator[None]:
    """Merge ``labels`` into the ambient set for the dynamic extent."""
    prev = getattr(_context, "labels", None)
    merged = dict(prev or {})
    merged.update({k: v for k, v in labels.items() if v is not None})
    _context.labels = merged or None
    try:
        yield
    finally:
        _context.labels = prev


def _merged(labels: Dict[str, object]) -> Dict[str, object]:
    ambient = getattr(_context, "labels", None)
    if not ambient:
        return labels
    out = dict(ambient)
    out.update(labels)
    return out


# --------------------------------------------------------------------------- #
# Call-site helpers.  Every helper early-returns when disabled so call sites
# can stay one line; the hottest sites (locks, syscall wrappers) check
# ``obs.enabled`` themselves first and never pay the call.
# --------------------------------------------------------------------------- #


def count(name: str, n: int = 1, /, **labels: object) -> None:
    """Increment a counter (no-op when disabled)."""
    if enabled:
        metrics.counter(name, **_merged(labels)).inc(n)


def kernel_crossing(reason: str) -> None:
    """One user/kernel boundary crossing, tagged by why it happened.

    Reasons in use: ``mmap`` (acquire/map core state), ``ownership_transfer``
    (release/revoke), ``verification`` (commit-in-place), ``inode_alloc``,
    ``rename_lease``, ``corruption_resolution``.
    """
    if enabled:
        metrics.counter("kernel.crossings", **_merged({"reason": reason})).inc()
        if tracer.enabled:
            tracer.instant(f"kernel.{reason}", category="kernel")


def lock_wait(kind: str, wait_ns: int) -> None:
    """One lock acquisition and the nanoseconds spent obtaining it."""
    if enabled:
        labels = _merged({"kind": kind})
        metrics.counter("lock.acquisitions", **labels).inc()
        metrics.counter("lock.wait_ns", **labels).inc(wait_ns)


def span(name: str, category: str = "op", **args: object):
    """A tracer span and/or profiler frame, or the shared no-op.

    One call site serves every collector: with tracing on it records a
    timed span, with profiling on it charges a call-path frame, with both
    on a :class:`SpanFrame` drives the pair in lockstep.
    """
    if not enabled:
        return NULL_SPAN
    sp = tracer.span(name, category, **args) if tracer.enabled else None
    fr = profiler.frame(name) if profiler.enabled else None
    if sp is not None and fr is not None:
        return SpanFrame(sp, fr)
    if sp is not None:
        return sp
    if fr is not None:
        return fr
    return NULL_SPAN


def charge(sim_ns: float, *suffix: str) -> None:
    """Charge simulated (cost-model / DES) nanoseconds to the calling
    thread's current profiler path; no-op unless profiling is on."""
    if enabled and profiler.enabled:
        profiler.charge(sim_ns, *suffix)


def charge_path(path, sim_ns: float, calls: int = 0) -> None:
    """Charge simulated nanoseconds to an explicit call path."""
    if enabled and profiler.enabled:
        profiler.charge_path(path, sim_ns, calls)


def pipeline_profile(name: str) -> Optional[PipelineProfile]:
    """The named pipeline profile, or ``None`` when profiling is off."""
    if enabled and profiler.enabled:
        return profiler.pipeline(name)
    return None


def current_span_path() -> Optional[str]:
    """The calling thread's open span/frame path as ``a;b;c`` (or None)."""
    if tracer.enabled:
        names = tracer.stack_names()
        if names:
            return ";".join(names)
    if profiler.enabled:
        path = profiler.current_path()
        if path:
            return ";".join(path)
    return None


def trace_id() -> Optional[str]:
    """The current trace's id (stable until the next :func:`reset`)."""
    return tracer.trace_id if tracer.enabled else None


def publish_stats(prefix: str, stats: object, **labels) -> None:
    """Republish a stats dataclass (PMStats, KernelStats, LibFSStats, ...)
    into the registry: every int/float field becomes ``<prefix>.<field>``.
    Keyword labels dimension every published series (e.g. ``device=0`` for
    one member of a PM array; the snapshot rolls labeled series into their
    base name, so per-device publishes aggregate automatically).

    Unconditional (not gated on :data:`enabled`): it is a snapshot-time
    operation, called once per run, never on a hot path.
    """
    for f in dataclasses.fields(stats):
        v = getattr(stats, f.name)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        name = f"{prefix}.{f.name.rstrip('_')}"
        if isinstance(v, int) and v >= 0:
            metrics.counter(name, **labels).inc(v)
        else:
            metrics.gauge(name, **labels).set(v)


def stats_diff(now: object, earlier: object):
    """Field-wise difference of two same-type stats dataclasses."""
    if type(now) is not type(earlier):
        raise TypeError(f"cannot diff {type(now)} against {type(earlier)}")
    delta = {
        f.name: getattr(now, f.name) - getattr(earlier, f.name)
        for f in dataclasses.fields(now)
        if isinstance(getattr(now, f.name), (int, float))
        and not isinstance(getattr(now, f.name), bool)
    }
    return dataclasses.replace(now, **delta)
