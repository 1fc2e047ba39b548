"""On-PM redo-log format for multi-file transactions.

A transaction's commit record is a chain of ``PAGE_KIND_TXLOG`` pages
holding a log header followed by one redo record per buffered operation.
Records reuse the KV WAL's framing (``crc u32 | seq u64 | op u8 | klen u32
| vlen u32 | key | value``, CRC covering everything after itself) so both
logs share one parse/CRC discipline; the header adds a whole-payload CRC
and the record count, making "sealed but torn" distinguishable from
"sealed and intact".

The commit point is a single 8-byte ``atomic_store`` of the *seal word*
into the superblock's ``tx_log_head`` field: the chain's head page and a
tag, the payload's body CRC (``pm.layout.pack_seal``):

1. allocate pages — warm, the ones the last checkpoint on this thread
   recycled; cold, from a refill whose bitmap bits persist first (a crash
   here leaks pages, which mount-time ``rebuild`` reclaims);
2. stream header + records into the chain — one store and one ``clwb``
   per physically contiguous run of pages — and no fence;
3. *seal*: ``atomic_store`` the seal word, ``clwb``, ``sfence``: one fence
   for the log and the seal.  Before it, a crash may find the seal on
   media ahead of a torn log, or over a stale log left on reused pages;
   neither carries the seal's tag, so :func:`parse_log` rejects it, and
   mount and fsck discard it: the volume shows none of the transaction.
   After it, recovery replays all of it.

Checkpoint (after apply) clears the seal and stamps each chain page with
the allocator's reservation tag under one fence of its own, then returns
the pages to the committing thread's pool — up to its ``pool_pages``; any
excess is freed, and its bit clears ride the next fence (:func:`retire`).
Step 1 of the next commit on that thread then draws the same pages again:
a warm commit stores no bitmap byte and causes no pool refill.

This module is dependency-light on purpose — device + layout + the
core-state chain walker + the WAL framing only — so
``repro.fsck`` and the kernel's recovery can parse logs without importing
the transaction manager above them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.core.corestate import CoreState
from repro.errors import ChainCorrupt
from repro.kv.wal import frame_parts, parse_record
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import (
    PAGE_KIND_TXLOG,
    PAGE_PAYLOAD,
    PAGEHDR,
    PAGEHDR_SIZE,
    SB_TX_HEAD_OFF,
    Geometry,
    PageHeader,
    pack_seal,
    unpack_seal,
)

#: Magic stamped at the start of every log payload ("REPROTXL").
TX_MAGIC = 0x5245_5052_4F54_584C

#: magic u64 | txid u64 | nrecords u32 | payload_crc u32
_LOGHDR = struct.Struct("<QQII")

#: Redo-record opcodes, each one sub-op's of :mod:`repro.ops`.  ``seq`` in
#: the WAL framing carries the numeric argument (mode / offset / size);
#: ``key`` the path; ``value`` the data (pwrite) or new path (rename).
TX_CREATE = 1
TX_MKDIR = 2
TX_PWRITE = 3
TX_RENAME = 4
TX_UNLINK = 5
TX_TRUNCATE = 6

#: Safety bound when walking a (possibly corrupt) log chain.
MAX_LOG_PAGES = 4096


class TxRecord(NamedTuple):
    """One redo record: ``op`` applied to ``path`` with ``arg``/``data``."""

    op: int
    path: str
    arg: int = 0
    data: bytes = b""


@dataclass
class TxLog:
    """A parsed, CRC-intact transaction log."""

    txid: int
    records: List[TxRecord]
    pages: List[int]


def build_payload(txid: int, records: List[TxRecord]) -> bytes:
    """Header + framed records, ready to stream into the page chain: each
    record is framed once, as pieces that one join copies into the
    payload, and the body CRC is chained over the same pieces."""
    parts = [b""]  # the header, once the body's CRC is known
    crc = 0
    for r in records:
        key = r.path.encode()
        framed = (*frame_parts(r.arg, r.op, key, r.data), key, r.data)
        for piece in framed:
            crc = zlib.crc32(piece, crc)
        parts += framed
    parts[0] = _LOGHDR.pack(TX_MAGIC, txid, len(records), crc)
    return b"".join(parts)


def payload_tag(payload: bytes) -> int:
    """The tag :func:`seal` publishes with ``payload``: its body CRC."""
    return _LOGHDR.unpack_from(payload)[3]


def write_log(
    device: PMDevice,
    geom: Geometry,
    alloc: PageAllocator,
    payload: bytes,
) -> List[int]:
    """Stream ``payload`` into a fresh TXLOG page chain; returns the pages.

    Each page's image is its packed header followed by a view of its chunk
    of ``payload``, so a physically contiguous run of log pages
    (``geom.extent_runs`` of consecutive page numbers) is one store and one
    ``clwb`` of a blob joining those: the payload is copied once, into the
    blob.  Nothing is fenced here: the chain becomes durable under
    :func:`seal`'s fence, and the seal's tag keeps a chain torn before that
    fence from ever being replayed.
    """
    npages = max(1, (len(payload) + PAGE_PAYLOAD - 1) // PAGE_PAYLOAD)
    pages = alloc.alloc_many(npages, zero=False, log=True)
    parts = []  # header, chunk, header, chunk, ...
    src = memoryview(payload)
    for i in range(npages):
        chunk = src[i * PAGE_PAYLOAD:(i + 1) * PAGE_PAYLOAD]
        parts.append(PAGEHDR.pack(pages[i + 1] if i + 1 < npages else 0,
                                  len(chunk), PAGE_KIND_TXLOG, 0))
        parts.append(chunk)
    first = 0
    for end in range(1, npages + 1):
        if end < npages and pages[end] == pages[end - 1] + 1:
            continue
        for run_start, count in geom.extent_runs(pages[first], end - first):
            blob = b"".join(parts[2 * first:2 * (first + count)])
            off = geom.page_off(run_start)
            device.store(off, blob)
            device.clwb(off, len(blob))
            first += count
    return pages


def read_seal(device: PMDevice) -> Tuple[int, int]:
    """The seal word: ``(head page, tag)``; ``(0, 0)`` = nothing pending."""
    return unpack_seal(device.load(SB_TX_HEAD_OFF, 8))


def read_head(device: PMDevice) -> int:
    """The pending log's head page number (0 = no transaction pending)."""
    return read_seal(device)[0]


def seal(device: PMDevice, head_page: int, tag: int) -> None:
    """Publish the chain under ``tag`` (:func:`payload_tag`): the
    transaction's single atomic commit point, and the one fence that makes
    the chain :func:`write_log` stored durable with it."""
    device.atomic_store(SB_TX_HEAD_OFF, pack_seal(head_page, tag))
    device.clwb(SB_TX_HEAD_OFF, 8)
    device.sfence()


def retire(device: PMDevice, alloc: PageAllocator, pages: List[int], *,
           recycle: bool = True) -> None:
    """Clear the seal and stamp the chain's pages with the reservation tag,
    under one fence; then return the pages to the calling thread's pool
    (:meth:`~repro.pm.allocator.PageAllocator.repool`), up to its
    ``pool_pages``, and free the excess, whose bit clears ride the next
    fence (``free`` fences nothing).  ``recycle=False`` frees them all and
    stamps nothing: a replay at mount or by ``fsck --repair`` leaves
    nothing reserved.

    A crash therefore finds either the seal with every chain page still
    allocated — mount re-claims the chain and replays the log, or discards
    it when a tag already overwrote a page's link (the apply it would
    redo is durable either way), as if the checkpoint had not begun — or
    no seal over pages nothing links to: recycled ones with their bits
    set, reservations or leaks that mount reclaims, and freed excess with
    its bits set or clear.  The fence is one a crash needs: without
    it the seal could outlive the next op — a crash inside an ``unlink``
    of a file the transaction wrote would replay the log and re-create
    the file.
    """
    kept = alloc.tag_for_pool(pages) if recycle else []
    device.atomic_store(SB_TX_HEAD_OFF, bytes(8))
    device.clwb(SB_TX_HEAD_OFF, 8)
    device.sfence()
    alloc.repool(kept)
    alloc.free(*pages[len(kept):])


def chain_pages(device: PMDevice, geom: Geometry, head: int) -> List[int]:
    """Walk a TXLOG chain defensively; stops before any page that is not
    a log page, and at any bad link or cycle.

    Never raises — fsck and recovery both need the reachable prefix of a
    possibly-corrupt chain (to claim its pages / bound the damage).  A
    page of another kind is never the log's: a stale or forged head may
    reach a live file's page, which must not be claimed or freed as log.
    """
    pages: List[int] = []
    try:
        for page_no, hdr in CoreState(device, geom).walk_chain(head, limit=MAX_LOG_PAGES):
            if hdr.kind != PAGE_KIND_TXLOG:
                break
            pages.append(page_no)
    except ChainCorrupt:
        pass
    return pages


def parse_log(device: PMDevice, geom: Geometry) -> Tuple[Optional[TxLog], List[int]]:
    """Parse the pending log, if any.

    Returns ``(log, pages)``: ``log`` is None when no log is pending *or*
    the pending log fails validation (bad chain, magic, CRC, record count,
    a record kind no row of :mod:`repro.ops` records, or a header or body
    CRC other than the seal's tag); ``pages`` is the
    reachable chain either way so the caller can reclaim a corrupt log's
    pages.
    """
    from repro.ops import TX_KINDS  # the op table imports the kinds above
    head, tag = read_seal(device)
    if head == 0:
        return None, []
    pages = chain_pages(device, geom, head)
    if not pages:
        return None, pages
    blob = bytearray()
    for page_no in pages:
        hdr = PageHeader.unpack(device.load(geom.page_off(page_no), PAGEHDR_SIZE))
        if hdr.used > PAGE_PAYLOAD:
            return None, pages
        blob += device.load(geom.page_off(page_no) + PAGEHDR_SIZE, hdr.used)
    if len(blob) < _LOGHDR.size:
        return None, pages
    magic, txid, nrecords, crc = _LOGHDR.unpack_from(bytes(blob[: _LOGHDR.size]))
    body = bytes(blob[_LOGHDR.size :])
    if magic != TX_MAGIC or crc != tag or zlib.crc32(body) != crc:
        return None, pages
    records: List[TxRecord] = []
    off = 0
    while off < len(body):
        parsed = parse_record(body, off)
        if parsed is None:
            return None, pages
        arg, op, key, value, off = parsed
        if op not in TX_KINDS:  # a kind no op row records
            return None, pages
        records.append(TxRecord(op=op, path=key.decode("utf-8", "replace"),
                                arg=arg, data=value))
    if len(records) != nrecords:
        return None, pages
    return TxLog(txid=txid, records=records, pages=pages), pages
