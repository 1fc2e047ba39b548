"""Sequence counters (seqlock read side).

A patched LibFS reads file data with optimistic concurrency instead of the
file rwlock's read side: writers bump a sequence number around every
mutation (under the write lock that already serializes them), and readers

1. wait for an even sequence (no writer mid-flight),
2. do the read with no lock and no shared-cacheline store,
3. re-check the sequence; a change means the read may be torn — retry.

This is the Linux ``seqcount_t`` discipline.  Two properties matter here:

* a reader that validates saw a state no writer overlapped — so a file
  read cannot interleave two pwrites;
* validation is two plain loads and a compare.  Unlike a readers-writer
  lock (whose ``acquire_read`` is a read-modify-write on a shared line)
  the read side writes nothing, so it scales linearly with cores.

Torn reads are *detected*, not prevented — what a doomed attempt touches
must therefore stay safe to touch: a mapping pulled out from under it
faults (``SimulatedBusError``) and the attempt is simply retried.

The counter counts nothing else: the sequence is its only state, so the
read side stores nothing at all.  ``LibFS.pread`` counts the attempts it
redoes as ``readpath.pread_retries``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class SeqCount:
    """One sequence counter; odd while a write is in progress.

    Writers must already be mutually excluded (the file write lock):
    :meth:`write_begin`/:meth:`write_end` only publish that a write is
    happening, they do not provide exclusion.  The counter is a plain int
    — single attribute loads/stores are atomic under the GIL, which stands
    in for the aligned-word atomicity the C original relies on.
    """

    __slots__ = ("name", "_seq")

    def __init__(self, name: str = "seq"):
        self.name = name
        self._seq = 0

    @property
    def sequence(self) -> int:
        return self._seq

    # -- write side (caller holds the writer lock) ---------------------- #

    def write_begin(self) -> None:
        self._seq += 1

    def write_end(self) -> None:
        self._seq += 1

    @contextmanager
    def write(self) -> Iterator[None]:
        self.write_begin()
        try:
            yield
        finally:
            self.write_end()

    # -- read side ------------------------------------------------------ #

    def read_begin(self) -> int:
        """An even sequence to validate against (spins past live writers)."""
        while True:
            seq = self._seq
            if seq & 1 == 0:
                return seq
            time.sleep(0)  # yield the GIL to the writer

    def read_retry(self, start: int) -> bool:
        """True when the optimistic read overlapped a write — retry it."""
        return self._seq != start
