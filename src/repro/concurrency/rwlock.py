"""Readers-writer lock.

ArckFS uses a readers-writer lock per regular file; the §4.3 patch makes the
releasing thread take the *write* side so no reader or writer can still be
inside the file when its mapping is torn down.

Writer-preferring: once a writer is waiting, new readers queue behind it,
so release (which takes the write lock in ArckFS+) cannot be starved.

One plain lock guards the state; only a thread that must wait builds a
Condition over it, and only then does a release notify.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Set

from repro import obs


class RWLock:
    """Writer-preferring readers-writer lock."""

    def __init__(self, name: str = "rwlock"):
        self.name = name
        self._lock = threading.Lock()
        #: built over ``_lock`` by the first thread that has to wait
        self._cond: Optional[threading.Condition] = None
        #: threads blocked on ``_cond``; a release notifies only if > 0
        self._waiters = 0
        self._readers: Set[int] = set()
        self._writer: Optional[int] = None
        self._writers_waiting = 0
        self.read_acquisitions = 0
        self.write_acquisitions = 0

    def _wait(self, kind: str, ready: Callable[[], bool],
              timeout: Optional[float]) -> bool:
        """Block until ``ready()``; the caller holds ``_lock``."""
        obs.count("lock.contended", kind=kind)
        start = time.perf_counter_ns() if obs.enabled else 0
        if self._cond is None:
            self._cond = threading.Condition(self._lock)
        self._waiters += 1
        try:
            ok = self._cond.wait_for(ready, timeout=timeout)
        finally:
            self._waiters -= 1
        if ok and obs.enabled:
            obs.lock_wait(kind, time.perf_counter_ns() - start)
        return ok

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        with self._lock:
            if self._writer == me:
                raise RuntimeError(f"{self.name}: read-acquire while holding write lock")
            if me in self._readers:
                raise RuntimeError(f"{self.name}: non-reentrant read lock re-acquired")
            if self._writer is not None or self._writers_waiting:
                if not self._wait(
                        "rw_read",
                        lambda: self._writer is None and self._writers_waiting == 0,
                        timeout):
                    return False
            elif obs.enabled:
                obs.lock_wait("rw_read", 0)
            self._readers.add(me)
            self.read_acquisitions += 1
            return True

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._lock:
            if me not in self._readers:
                raise RuntimeError(f"{self.name}: read-release by non-reader")
            self._readers.discard(me)
            if self._waiters:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        with self._lock:
            if self._writer == me:
                raise RuntimeError(f"{self.name}: non-reentrant write lock re-acquired")
            if self._writer is not None or self._readers:
                self._writers_waiting += 1
                try:
                    ok = self._wait(
                        "rw_write",
                        lambda: self._writer is None and not self._readers,
                        timeout)
                finally:
                    self._writers_waiting -= 1
                if not ok:
                    if self._waiters:  # readers held back by this writer
                        self._cond.notify_all()
                    return False
            elif obs.enabled:
                obs.lock_wait("rw_write", 0)
            self._writer = me
            self.write_acquisitions += 1
            return True

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._lock:
            if self._writer != me:
                raise RuntimeError(f"{self.name}: write-release by non-owner")
            self._writer = None
            if self._waiters:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #

    def write_held_by_me(self) -> bool:
        return self._writer == threading.get_ident()

    class _ReadGuard:
        def __init__(self, lock: "RWLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()
            return self._lock

        def __exit__(self, *exc):
            self._lock.release_read()

    def read(self) -> "_ReadGuard":
        return RWLock._ReadGuard(self)
