"""Spinlock.

ArckFS protects each directory hash bucket, each directory-log tail and the
log index tail with spinlocks (paper §2.2; footnote 4 corrects the Trio
paper's claim that buckets use readers-writer locks — they are spinlocks,
and readers take no lock at all, which is bug §4.5).

On top of a real :class:`threading.Lock` we add ownership tracking (so tests
can assert who holds what), an acquisition counter for the cost model, and
non-reentrancy checking (silent self-deadlock in a test run becomes a loud
error instead).  ``with lock:`` enters :meth:`~SpinLock.acquire` and exits
:meth:`~SpinLock.release` themselves, one frame each.
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
        #: ident of the holding thread, None while free: a caller that must
        #: hold the lock compares it with ``threading.get_ident()`` inline.
        self.owner: Optional[int] = None
        self.acquisitions = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        if self.owner == me:
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
        self.owner = me
        self.acquisitions += 1
        if obs.enabled:
            obs.lock_wait("spin", time.perf_counter_ns() - start)
        return True

    def release(self, *exc) -> None:
        if self.owner != threading.get_ident():
            raise RuntimeError(f"{self.name}: released by non-owner")
        self.owner = None
        self._lock.release()

    def held_by_me(self) -> bool:
        return self.owner == threading.get_ident()

    @property
    def locked(self) -> bool:
        return self.owner is not None

    # ``with lock:`` (the value bound by ``as`` is acquire's True)
    __enter__ = acquire
    __exit__ = release

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpinLock {self.name} owner={self.owner}>"
