"""Phase 1 — the sharded inode-table scan.

Each worker walks a contiguous shard of the shadow inode table and, for
every valid record, every on-PM structure hanging off it: directory-log
tail chains (with every parseable dentry record), the file page-index
chain, and the data-page slots, all read through
:meth:`~repro.core.corestate.CoreState.walk_chain`.  The scan never raises:
the walker's :class:`~repro.errors.ChainCorrupt` (a link out of range, or
revisiting a page) is recorded as an error dict carrying the last good
page — exactly what truncate-to-consistent-prefix repair needs.

The scan is read-only and self-contained per shard, so shards run in
parallel with no shared mutable state; the cross-check phase consumes the
merged results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.corestate import CoreState, DentryLoc
from repro.errors import ChainCorrupt
from repro.pm.layout import PAGE_SIZE, Dentry, InodeRecord


@dataclass
class TailScan:
    """One directory-log tail chain: its pages and parseable records."""

    tail_idx: int
    head: int
    pages: List[int] = field(default_factory=list)
    records: List[Tuple[DentryLoc, Dentry]] = field(default_factory=list)
    #: set when the chain is corrupt: {"bad": page, "last_good": page|0}
    error: Optional[Dict[str, int]] = None


@dataclass
class InodeScan:
    """Everything phase 2 needs to know about one valid inode record."""

    ino: int
    rec: InodeRecord
    tails: List[TailScan] = field(default_factory=list)
    index_pages: List[int] = field(default_factory=list)
    index_error: Optional[Dict[str, int]] = None
    data_pages: List[int] = field(default_factory=list)
    #: set when a data slot is out of range: {"slot": n, "page": bad_page,
    #: "last_good": index_page, "slot_addr": device_addr}
    data_error: Optional[Dict[str, int]] = None
    #: header kind per chain (dirlog/index) page, for the kind cross-check.
    kinds: Dict[int, int] = field(default_factory=dict)

    def dentries(self):
        for ts in self.tails:
            yield from ts.records

    def chain_pages(self) -> List[int]:
        pages: List[int] = []
        for ts in self.tails:
            pages.extend(ts.pages)
        pages.extend(self.index_pages)
        return pages


@dataclass
class ShardScan:
    """One worker's share of the table, with its cost accounting."""

    inos: Sequence[int]
    inodes: List[InodeScan] = field(default_factory=list)
    records_read: int = 0
    pages_read: int = 0
    dentries_parsed: int = 0
    bytes_scanned: int = 0


def _walk_tail(core: CoreState, tail_idx: int, head: int, kinds: Dict[int, int]) -> TailScan:
    ts = TailScan(tail_idx=tail_idx, head=head)
    try:
        for page_no, hdr in core.walk_chain(head):
            ts.pages.append(page_no)
            kinds[page_no] = hdr.kind
            ts.records += core.page_dentries(page_no, tail_idx)[0]
    except ChainCorrupt as exc:
        ts.error = {"bad": exc.bad, "last_good": exc.last_good}
    return ts


def _walk_index(core: CoreState, scan: InodeScan) -> None:
    try:
        for page_no, hdr in core.walk_chain(scan.rec.index_root):
            scan.index_pages.append(page_no)
            scan.kinds[page_no] = hdr.kind
    except ChainCorrupt as exc:
        scan.index_error = {"bad": exc.bad, "last_good": exc.last_good}


def _walk_data_slots(core: CoreState, scan: InodeScan) -> None:
    try:
        for page_no in core.data_pages(scan.index_pages):
            scan.data_pages.append(page_no)
    except ChainCorrupt as exc:
        slot = len(scan.data_pages)
        scan.data_error = {
            "slot": slot,
            "page": exc.bad,
            "last_good": exc.last_good,
            "slot_addr": core.index_slot_addr(scan.index_pages, slot),
        }


def scan_shard(core: CoreState, inos: Sequence[int]) -> ShardScan:
    """Scan the given inode slots; never raises on corrupt structures."""
    shard = ShardScan(inos=inos)
    for ino in inos:
        rec = core.read_inode(ino)
        shard.records_read += 1
        shard.bytes_scanned += InodeRecord.SIZE
        if not rec.valid:
            continue
        scan = InodeScan(ino=ino, rec=rec)
        if rec.is_dir:
            for tail_idx, head in enumerate(rec.tails):
                if not head:
                    continue
                ts = _walk_tail(core, tail_idx, head, scan.kinds)
                scan.tails.append(ts)
                shard.dentries_parsed += len(ts.records)
        else:
            _walk_index(core, scan)
            if scan.index_error is None:
                _walk_data_slots(core, scan)
        npages = len(scan.chain_pages())
        shard.pages_read += npages
        shard.bytes_scanned += npages * PAGE_SIZE
        shard.inodes.append(scan)
    return shard
