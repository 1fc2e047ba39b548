"""Phase 1 — the inode-table scan.

Every slot of the inode table is read and, for every valid record, every
on-PM structure hanging off it is walked into an
:class:`~repro.core.invariants.InodeShape`: directory-log tail chains (with
every parseable dentry record), the page-index chain and the data slots,
all read through
:meth:`~repro.core.corestate.CoreState.walk_chain`.  The scan never raises:
the walker's :class:`~repro.errors.ChainCorrupt` (a link out of range, or
revisiting a page) is recorded with the last good page — exactly what
truncate-to-consistent-prefix repair needs.

The scan is read-only and self-contained per inode, so any split of the
table could run in parallel with no shared mutable state —
``CostModel.fsck_phase_time`` prices that split from the per-inode work
:func:`pages_read` and the parsed records give.  The cross-check phase
consumes the scanned shapes.
"""

from __future__ import annotations

from typing import Dict

from repro.core.corestate import CoreState
from repro.core.invariants import InodeShape, walk, walk_file


def pages_read(shape: InodeShape) -> int:
    """The chain pages the scan read for ``shape``: its directory-log
    tails, or its file's page index."""
    return (sum(len(chain.pages) for _idx, chain in shape.tails)
            + len(shape.index.pages))


def scan(core: CoreState, slots: int) -> Dict[int, InodeShape]:
    """Scan inode slots ``0 .. slots - 1``; the valid ones' shapes, by
    ino.  Never raises on corrupt structures."""
    shapes: Dict[int, InodeShape] = {}
    for ino in range(slots):
        rec = core.read_inode(ino)
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
        else:
            walk_file(core, shape)
        shapes[ino] = shape
    return shapes
