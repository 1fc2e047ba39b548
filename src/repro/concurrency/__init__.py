"""Concurrency substrate: locks, RCU, leases and deterministic failpoints.

The paper reproduces each concurrency bug by "inserting a sleep()" at a
precise code point; this package generalises that methodology.  Named
:mod:`failpoints <repro.concurrency.failpoints>` are compiled into the
ArckFS code at the exact sites the paper describes, and tests install
callbacks (barriers, events, or inline operations) to force the interleaving
deterministically instead of relying on timing.

The synchronisation primitives mirror the ones ArckFS/ArckFS+ use: per-bucket
spinlocks (§4.4/§4.5), readers-writer locks for regular files (§4.3), RCU for
the directory hash buckets (the §4.5 patch), and a lease with timeout for the
kernel's global cross-directory rename lock (the §4.6 patch).
"""

from repro.concurrency.failpoints import FailpointRegistry, failpoints
from repro.concurrency.spinlock import SpinLock
from repro.concurrency.rwlock import RWLock
from repro.concurrency.rcu import RCU
from repro.concurrency.lease import Lease

__all__ = [
    "FailpointRegistry",
    "failpoints",
    "SpinLock",
    "RWLock",
    "RCU",
    "Lease",
]
