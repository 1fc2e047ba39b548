"""Stride sharding: the worker arithmetic shared by the parallel models.

Both the whole-volume checker (``repro.fsck``) and the ownership-transfer
verifier's batch scheduler (``repro.kernel.verifier``) split their work
into shared-nothing shards, one per *modeled* worker.  The helper lives
here — below both users in the layer diagram — so neither has to import
the other.

No thread runs a shard: every shard is checked in order on the calling
thread, and throughput is reported in deterministic virtual nanoseconds
from the calibrated cost model — a parallel phase costs what its slowest
shard costs.  Python threads share the GIL, so wall-clock scaling would
measure the interpreter, not the algorithm.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")


def stride_shards(items: Sequence[T], workers: int) -> List[Sequence[T]]:
    """Deal ``items`` round-robin into ``workers`` shards.

    Striding (rather than contiguous ranges) balances the shards even when
    the interesting items cluster — low inode slots on a mostly-empty
    volume, the head of a page chain for a short file.
    """
    workers = max(1, min(workers, len(items))) if items else 1
    return [items[i::workers] for i in range(workers)]
