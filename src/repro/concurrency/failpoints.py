"""Named failpoints for deterministic race reproduction.

The ArckFS/ArckFS+ code calls ``failpoints.hit("name", ctx)`` at the code
sites where the paper inserted a ``sleep()`` to widen race windows.  A call
to :meth:`~FailpointRegistry.hit` costs a Python frame even with nothing
armed, so every site in ``libfs/``, ``core/``, ``kernel/`` and ``tx/``
first tests ``failpoints.hooks or obs.enabled`` inline (a test pins this):
disarmed, with observability off, a site costs that one test and builds
none of its context.  Tests install a callback to:

* park the thread on an event until the racing operation has run
  (:meth:`FailpointRegistry.park`), the deterministic analogue of the
  paper's ``sleep()``;
* crash the machine at that instant (raise CrashPoint) to place a
  crash-consistency test's crash point precisely;
* run arbitrary code.

Every hit, hooked or not, is counted as ``failpoints.hit{name=...}`` while
observability is on.

Failpoint sites compiled into the LibFS/kernel (one per paper section):

========================== ==================================================
``creat.pre_core_append``   §4.4 — after the DRAM hash insert, before the PM
                            dentry append.
``dir.bucket_traverse``     §4.5 — during lock-free bucket traversal, per node.
``dir.write_mid``           §4.3 — inside a directory write, after the bucket
                            lock logic, before dereferencing the PM mapping.
``rename.pre_apply``        §4.6 — after the cycle/descendant checks, before
                            the rename is applied.
``create.post_marker``      §4.2 — right after the commit-marker store+flush
                            (the paper adds a flush + sleep here); LibFS
                            hands ``CoreState.append_dentry`` a callback
                            that hits it.
``release.pre_unmap``       §4.3 — before the releasing thread unmaps.
========================== ==================================================
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro import obs


class FailpointRegistry:
    """A process-wide registry of named hooks."""

    def __init__(self) -> None:
        #: name -> hook; empty when nothing is armed.  Read-only outside
        #: this class, and never rebound (a site may bind it to a local): a
        #: site tests it (and ``obs.enabled``, which counts every hit)
        #: before it calls :meth:`hit`.
        self.hooks: Dict[str, Callable[[Any], None]] = {}

    # ------------------------------------------------------------------ #
    # Production-side API
    # ------------------------------------------------------------------ #

    def hit(self, name: str, ctx: Any = None) -> None:
        """Invoke the hook for ``name`` if one is installed."""
        if obs.enabled:
            obs.metrics.counter("failpoints.hit", name=name).inc()
        hook = self.hooks.get(name)
        if hook is not None:
            hook(ctx)

    # ------------------------------------------------------------------ #
    # Test-side API
    # ------------------------------------------------------------------ #

    def install(self, name: str, hook: Callable[[Any], None]) -> None:
        self.hooks[name] = hook

    def remove(self, name: str) -> None:
        self.hooks.pop(name, None)

    def clear(self) -> None:
        self.hooks.clear()

    def once(self, name: str, hook: Callable[[Any], None]) -> None:
        """Install a hook that disarms itself after its first hit."""

        def wrapper(ctx: Any) -> None:
            self.remove(name)
            hook(ctx)

        self.install(name, wrapper)

    def park(self, name: str, *, timeout: float = 2.0) -> "ParkedPoint":
        """Install a hook that parks the hitting thread until released.

        Returns a :class:`ParkedPoint` the test uses to (a) wait until a
        thread has arrived at the failpoint, (b) release it.  This is the
        deterministic replacement for the paper's ``sleep()`` injections.
        """
        point = ParkedPoint(timeout=timeout)

        def wrapper(_ctx: Any) -> None:
            self.remove(name)
            point.arrived.set()
            point.released.wait(point.timeout)

        self.install(name, wrapper)
        return point

    def park_when(
        self,
        name: str,
        predicate: Callable[[Any], bool],
        *,
        timeout: float = 2.0,
    ) -> "ParkedPoint":
        """Like :meth:`park`, but only the first hit whose context satisfies
        ``predicate`` parks (e.g. "park when traversing node X")."""
        point = ParkedPoint(timeout=timeout)

        def wrapper(ctx: Any) -> None:
            if not predicate(ctx):
                return
            self.remove(name)
            point.arrived.set()
            point.released.wait(point.timeout)

        self.install(name, wrapper)
        return point


class ParkedPoint:
    """Handle for a thread parked at a failpoint."""

    def __init__(self, timeout: float = 2.0):
        self.arrived = threading.Event()
        self.released = threading.Event()
        self.timeout = timeout

    def wait_arrived(self, timeout: Optional[float] = None) -> bool:
        return self.arrived.wait(timeout if timeout is not None else self.timeout)

    def release(self) -> None:
        self.released.set()


#: The process-wide registry used by the LibFS and kernel code.
failpoints = FailpointRegistry()
