"""Read-copy-update (RCU).

The §4.5 patch in ArckFS+ protects directory hash buckets with RCU: readers
traverse bucket chains inside a read-side critical section, and writers defer
freeing removed nodes until a grace period has elapsed — i.e. until every
reader that might still hold a reference has exited its critical section.

This is an epoch-based userspace RCU:

* a global epoch counter advances on every ``synchronize``;
* each reader records the epoch at ``read_lock`` in a per-thread slot;
* ``synchronize`` bumps the epoch and waits until no reader registered under
  an older epoch remains;
* ``call_rcu(fn)`` runs ``fn`` at once if no reader is inside, else queues
  it for the next ``synchronize``, ``barrier`` or reader-free ``call_rcu``.

One plain lock guards the state; only a waiting ``synchronize`` builds a
Condition over it, and only then does ``read_unlock`` notify.

Tests assert the central safety property directly: a node freed via
``call_rcu`` is never reclaimed while any reader that started before the
removal is still inside its critical section.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple


class RCU:
    """Epoch-based userspace RCU domain."""

    def __init__(self, name: str = "rcu"):
        self.name = name
        self._lock = threading.Lock()
        #: built over ``_lock`` by the first ``synchronize`` that has to wait
        self._cond: Optional[threading.Condition] = None
        #: ``synchronize`` calls blocked on ``_cond``; read_unlock notifies if > 0
        self._waiters = 0
        self._epoch = 1
        #: thread ident -> (epoch at read_lock, nesting depth)
        self._readers: Dict[int, Tuple[int, int]] = {}
        self._callbacks: List[Tuple[int, Callable[[], None]]] = []
        self.read_sections = 0
        self.grace_periods = 0

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def read_lock(self) -> "RCU":
        me = threading.get_ident()
        with self._lock:
            entry = self._readers.get(me)
            if entry is None:
                self._readers[me] = (self._epoch, 1)
                self.read_sections += 1
            else:
                epoch, depth = entry
                self._readers[me] = (epoch, depth + 1)
        return self

    def read_unlock(self, *exc) -> None:
        me = threading.get_ident()
        with self._lock:
            entry = self._readers.get(me)
            if entry is None:
                raise RuntimeError(f"{self.name}: read_unlock outside critical section")
            epoch, depth = entry
            if depth > 1:
                self._readers[me] = (epoch, depth - 1)
            else:
                del self._readers[me]
                if self._waiters:
                    self._cond.notify_all()

    def in_read_section(self) -> bool:
        return threading.get_ident() in self._readers

    # The section state lives in ``_readers``, so the domain is its own
    # guard: ``with rcu.read():`` enters and exits one frame each and
    # allocates nothing.
    __enter__ = read_lock
    __exit__ = read_unlock

    def read(self) -> "RCU":
        """A read-side critical section, as a context manager."""
        return self

    # ------------------------------------------------------------------ #
    # Update side
    # ------------------------------------------------------------------ #

    def call_rcu(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` after a grace period (deferred free): at once,
        with every callback already queued, when no reader is inside."""
        with self._lock:
            if self._readers:
                self._callbacks.append((self._epoch, callback))
                return
            ripe, self._callbacks = self._callbacks, []
        for _e, cb in ripe:
            cb()
        callback()

    def synchronize(self, timeout: Optional[float] = 10.0) -> None:
        """Wait for a full grace period, then run ripe callbacks.

        A reader is "old" if it entered under an epoch <= the epoch at which
        ``synchronize`` started; we wait until none remain.  The caller must
        not be inside a read-side critical section (checked).
        """
        me = threading.get_ident()
        with self._lock:
            if me in self._readers:
                raise RuntimeError(f"{self.name}: synchronize inside read section")
            start_epoch = self._epoch
            self._epoch += 1
            if self._readers:
                if self._cond is None:
                    self._cond = threading.Condition(self._lock)
                self._waiters += 1
                try:
                    ok = self._cond.wait_for(
                        lambda: all(e > start_epoch
                                    for e, _d in self._readers.values()),
                        timeout=timeout,
                    )
                finally:
                    self._waiters -= 1
                if not ok:
                    raise RuntimeError(f"{self.name}: grace period timed out")
            self.grace_periods += 1
            ripe = [cb for e, cb in self._callbacks if e <= start_epoch]
            self._callbacks = [(e, cb) for e, cb in self._callbacks if e > start_epoch]
        for cb in ripe:
            cb()

    def barrier(self) -> None:
        """Wait until every queued callback has run."""
        while True:
            with self._lock:
                if not self._callbacks:
                    return
            self.synchronize()

    def pending_callbacks(self) -> int:
        with self._lock:
            return len(self._callbacks)
