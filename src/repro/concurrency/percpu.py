"""Per-thread sharded stats (the per-CPU counter analogue).

A shared ``self.count += 1`` is two problems at once: in C it is a
read-modify-write on a cacheline that bounces between cores; in this
reproduction it is also a plain data race when the writers hold
*different* locks.  The fix is the same in both worlds: give every thread
its own cells and fold on read.  Increments touch thread-private state
only — no lock, no shared store, no lost updates — and reads sum the
shards.  The folded value is exact once the writers have quiesced; mid-run
it is a snapshot that may miss in-flight increments, exactly like
``percpu_counter_sum``.  (``DirHashTable.count`` shards the same way, per
bucket under the bucket's own lock; ``obs.metrics.Counter`` per thread.)

Shards of exited threads are retained (their contribution must not
vanish), so the memory is bounded by the number of distinct threads that
ever touched the stats.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Type, TypeVar

T = TypeVar("T")


class ShardedStats:
    """A stats dataclass sharded per thread.

    Wraps a dataclass of int counters (``LibFSStats`` and friends): a
    path takes the calling thread's private shard once, by :meth:`cells`,
    and bumps its fields there (``cells["reads"] += 1``);
    :meth:`fold` sums the shards into a real instance of the dataclass —
    the one record of those counts: ``dataclasses.replace`` copies it,
    ``obs.stats_diff`` takes the delta of two, and an observed run
    publishes that delta (``libfs.*``) with ``obs.publish_stats``.
    """

    def __init__(self, cls: Type[T]):
        self._cls = cls
        self._fields = [f.name for f in dataclasses.fields(cls)]
        self._local = threading.local()
        self._shards: List[Dict[str, int]] = []
        self._register = threading.Lock()

    def cells(self) -> Dict[str, int]:
        """The calling thread's shard: field name -> its count, bumped in
        place (``cells["reads"] += 1``); a typo'd name is a ``KeyError``."""
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = dict.fromkeys(self._fields, 0)
            with self._register:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def fold(self) -> T:
        totals = dict.fromkeys(self._fields, 0)
        with self._register:
            shards = list(self._shards)
        for shard in shards:
            for name in self._fields:
                totals[name] += shard[name]
        return self._cls(**totals)
