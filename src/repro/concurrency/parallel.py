"""Generic shard-and-join helpers shared by the parallel subsystems.

Both the whole-volume checker (``repro.fsck``) and the ownership-transfer
verifier's batch scheduler (``repro.kernel.verifier``) split their work
into shared-nothing shards, run every shard on its own thread, and join.
The helpers live here — below both users in the layer diagram — so neither
has to import the other.

Shards run on *real* threads (any ordering bug in the functionally parallel
code would surface), while throughput is reported in deterministic virtual
nanoseconds from the calibrated cost model: a parallel phase costs what its
slowest shard costs.  Python threads share the GIL, so wall-clock scaling
would measure the interpreter, not the algorithm.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def stride_shards(items: Sequence[T], workers: int) -> List[Sequence[T]]:
    """Deal ``items`` round-robin into ``workers`` shards.

    Striding (rather than contiguous ranges) balances the shards even when
    the interesting items cluster — low inode slots on a mostly-empty
    volume, the head of a page chain for a short file.
    """
    workers = max(1, min(workers, len(items))) if items else 1
    return [items[i::workers] for i in range(workers)]


def run_parallel(jobs: Sequence[Callable[[], T]], name: str = "shard") -> List[T]:
    """Run every job on its own thread; propagate the first exception."""
    if len(jobs) == 1:
        return [jobs[0]()]
    results: List[T] = [None] * len(jobs)  # type: ignore[list-item]
    errors: List[BaseException] = []

    def runner(i: int, job: Callable[[], T]) -> None:
        try:
            results[i] = job()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i, job), name=f"{name}-w{i}")
        for i, job in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
