"""Modeled cost (virtual ns) of the three fsck phases.

The scan and check phases are stride-sharded over ``workers`` *modeled*
workers; every shard runs in order on the calling thread, and
*throughput* is reported in deterministic virtual nanoseconds from the
calibrated cost model — the same convention every performance figure in
this repository uses (see ``repro.perf``).  A parallel phase costs what its
slowest shard costs; the serial graph merge is charged on top.  This keeps
the worker-scaling benchmark exact and host-independent: Python threads
share the GIL, so wall-clock scaling would measure the interpreter, not
the algorithm.
"""

from __future__ import annotations

from repro.perf.costmodel import COST
from repro.pm.layout import PAGE_SIZE, InodeRecord


def scan_shard_cost(records_read: int, pages_read: int, dentries: int) -> float:
    """Scan cost of one shard: a PM read per inode record and per chain
    page (latency + bandwidth), CPU per dentry parsed."""
    return (
        records_read * (COST.pm_read_lat
                        + COST.pm_bw_time(InodeRecord.SIZE, read=True))
        + pages_read * (COST.pm_read_lat + COST.pm_bw_time(PAGE_SIZE, read=True))
        + dentries * COST.lookup_cpu
    )


def check_shard_cost(inodes: int, dentries: int) -> float:
    """Cross-check cost of one shard: table lookups per dentry target plus
    per-inode bookkeeping."""
    return inodes * COST.op_cpu + dentries * 2 * COST.lookup_cpu


def graph_cost(edges: int, pages: int) -> float:
    """The serial merge: reachability over the edge set and the page-claim
    / bitmap reconciliation (Amdahl's serial fraction of the pipeline)."""
    return edges * COST.lookup_cpu + pages * COST.lookup_cpu + COST.op_cpu
