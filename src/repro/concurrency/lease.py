"""Leases with timeout: the global rename lock.

The §4.6 patch adds a kernel-side **global rename lock** for cross-directory
renames of directories (the analogue of Linux VFS's ``s_vfs_rename_mutex``).
Because a *malicious* LibFS could acquire it and never return, the lock is a
lease: it expires after a timeout, after which the kernel may grant it to
another application (and the stale holder's subsequent operations fail).

The rename lease is the only lease the kernel holds: no verification
verdict depends on a clock.

Time is injectable so tests can expire leases deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import LeaseExpired  # noqa: F401  (canonical home; re-exported)


class Lease:
    """A single-holder lease with expiry."""

    def __init__(
        self,
        name: str = "lease",
        duration: float = 1.0,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.duration = duration
        self._now = now_fn or time.monotonic
        self._lock = threading.Lock()
        self._holder: Optional[str] = None
        self._expires_at = 0.0
        self.grants = 0
        self.expirations = 0

    def _expired_locked(self) -> bool:
        return self._holder is not None and self._now() >= self._expires_at

    def try_acquire(self, holder: str) -> bool:
        """Grant the lease to ``holder`` if free (or the current one lapsed)."""
        with self._lock:
            if self._holder is not None and not self._expired_locked():
                return self._holder == holder  # re-grant to current holder
            if self._holder is not None:
                self.expirations += 1
            self._holder = holder
            self._expires_at = self._now() + self.duration
            self.grants += 1
            return True

    def acquire(self, holder: str, timeout: float = 5.0, poll: float = 0.001) -> bool:
        """Blocking acquire with a wall-clock timeout.

        Polls with exponential backoff from ``poll`` up to ``poll * 16``:
        a contended lease is typically held for a whole rename, so a fixed
        fine-grained spin burns CPU without acquiring any sooner.
        """
        deadline = time.monotonic() + timeout
        delay = poll
        while True:
            if self.try_acquire(holder):
                return True
            now = time.monotonic()
            if now >= deadline:
                return False
            time.sleep(min(delay, deadline - now))
            delay = min(delay * 2, poll * 16)

    def release(self, holder: str) -> None:
        with self._lock:
            if self._holder != holder:
                # Released by a non-holder — either never granted, or granted
                # then lapsed and re-granted elsewhere.  The stale holder must
                # learn its lease is gone, so this raises rather than passing.
                raise LeaseExpired(f"{self.name}: {holder} no longer holds the lease")
            self._holder = None

    def check(self, holder: str) -> None:
        """Assert ``holder`` still holds a live lease (kernel-side check)."""
        with self._lock:
            if self._holder != holder or self._expired_locked():
                raise LeaseExpired(f"{self.name}: {holder} does not hold a live lease")

    def held_by(self) -> Optional[str]:
        with self._lock:
            if self._holder is None or self._expired_locked():
                return None
            return self._holder
