"""Instrumentation shims used by the LibFS / kernel / lock layers.

The only non-trivial piece is :func:`traced_syscall`: a decorator applied to
every public LibFS operation.  When observability is off the wrapper costs
one module-attribute check plus the call indirection — no timestamps, no
allocation.  When on, it

* opens a tracer span named after the operation (category ``syscall``), so
  nested operations (``open(create=True)`` → ``creat`` → kernel events)
  show up as a proper flame in ``chrome://tracing``;
* records the op latency into the per-op histogram
  ``libfs.syscall.<op>.ns``, whose count is the op's call count;
* records the latency into the *aggregate* ``libfs.syscall.ns`` histogram
  only for outermost calls (per-thread depth tracking), so an op that
  calls another, like ``open(create=True)`` → ``creat``, counts once.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, TypeVar

from repro import obs

F = TypeVar("F", bound=Callable)

_depth = threading.local()


def traced_syscall(opname: str) -> Callable[[F], F]:
    hist_name = f"libfs.syscall.{opname}.ns"

    def deco(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not obs.enabled:
                return fn(*args, **kwargs)
            depth = getattr(_depth, "n", 0)
            _depth.n = depth + 1
            start = time.perf_counter_ns()
            try:
                with obs.span(opname, category="syscall"):
                    return fn(*args, **kwargs)
            finally:
                _depth.n = depth
                elapsed = time.perf_counter_ns() - start
                reg = obs.metrics
                # Ambient {app_id, volume} labels (set by the repro.api
                # facade) dimension every syscall metric per tenant.
                ambient = obs.context_labels()
                reg.histogram(hist_name, **ambient).observe(elapsed)
                if depth == 0:
                    reg.histogram("libfs.syscall.ns", **ambient).observe(elapsed)

        return wrapper  # type: ignore[return-value]

    return deco
