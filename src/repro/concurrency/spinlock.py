"""Spinlock.

ArckFS protects each directory hash bucket, each directory-log tail and the
log index tail with spinlocks (paper §2.2; footnote 4 corrects the Trio
paper's claim that buckets use readers-writer locks — they are spinlocks,
and readers take no lock at all, which is bug §4.5).

On top of a real :class:`threading.Lock` we add ownership tracking (so tests
can assert who holds what), an acquisition counter for the cost model, and
non-reentrancy checking (silent self-deadlock in a test run becomes a loud
error instead).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro import obs


class SpinLock:
    """A non-reentrant mutual-exclusion lock with ownership bookkeeping."""

    def __init__(self, name: str = "spinlock"):
        self.name = name
        self._lock = threading.Lock()
        self._owner: Optional[int] = None
        self.acquisitions = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            raise RuntimeError(f"{self.name}: non-reentrant lock re-acquired by owner")
        start = time.perf_counter_ns() if obs.enabled else 0
        if not self._lock.acquire(blocking=False):
            obs.count("lock.contended", kind="spin")
            if timeout is None:
                self._lock.acquire()
            elif not self._lock.acquire(timeout=timeout):
                if obs.enabled:
                    obs.count("lock.wait_ns", time.perf_counter_ns() - start,
                              kind="spin")
                return False
        self._owner = me
        self.acquisitions += 1
        if obs.enabled:
            obs.lock_wait("spin", time.perf_counter_ns() - start)
        return True

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError(f"{self.name}: released by non-owner")
        self._owner = None
        self._lock.release()

    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def __enter__(self) -> "SpinLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpinLock {self.name} owner={self._owner}>"
