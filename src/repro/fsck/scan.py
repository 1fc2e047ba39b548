"""Phase 1 — the sharded inode-table scan.

Each modeled worker's stride shard of the shadow inode table is walked in
turn and, for every valid record, every on-PM structure hanging off it into an
:class:`~repro.core.invariants.InodeShape`: directory-log tail chains (with
every parseable dentry record), the page-index chain and the data slots,
all read through
:meth:`~repro.core.corestate.CoreState.walk_chain`.  The scan never raises:
the walker's :class:`~repro.errors.ChainCorrupt` (a link out of range, or
revisiting a page) is recorded with the last good page — exactly what
truncate-to-consistent-prefix repair needs.

The scan is read-only and self-contained per shard, so shards run in
parallel with no shared mutable state; the cross-check phase consumes the
merged results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.corestate import CoreState
from repro.core.invariants import InodeShape, walk, walk_file
from repro.pm.layout import PAGE_SIZE, InodeRecord


@dataclass
class ShardScan:
    """One worker's share of the table, with its cost accounting."""

    inodes: List[InodeShape] = field(default_factory=list)
    records_read: int = 0
    pages_read: int = 0
    dentries_parsed: int = 0
    bytes_scanned: int = 0


def scan_shard(core: CoreState, inos: Sequence[int]) -> ShardScan:
    """Scan the given inode slots; never raises on corrupt structures."""
    shard = ShardScan()
    for ino in inos:
        rec = core.read_inode(ino)
        shard.records_read += 1
        shard.bytes_scanned += InodeRecord.SIZE
        if not rec.valid:
            continue
        shape = InodeShape(ino=ino, rec=rec)
        if rec.is_dir:
            for tail_idx, head in enumerate(rec.tails):
                if not head:
                    continue
                chain = walk(core, head)
                shape.tails.append((tail_idx, chain))
                for page_no in chain.pages:
                    shape.records += core.page_dentries(page_no, tail_idx)[0]
            shard.dentries_parsed += len(shape.records)
        else:
            walk_file(core, shape)
        npages = (sum(len(chain.pages) for _idx, chain in shape.tails)
                  + len(shape.index.pages))
        shard.pages_read += npages
        shard.bytes_scanned += npages * PAGE_SIZE
        shard.inodes.append(shape)
    return shard
