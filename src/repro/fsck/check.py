"""Phase 2 — cross-checking the scan against reconstructed reachability.

Two sub-phases, mirroring pFSCK's split:

* :func:`check_inodes` — embarrassingly parallel per-inode validation:
  the rules of :mod:`repro.core.invariants`, which the kernel verifier and
  mount apply too.  It needs the *whole* scanned inode table (a dentry may
  target any slot) but writes nothing shared, so any split of its inodes
  could run in parallel, as the cost model prices it.
* :func:`check_graph` — the serial merge: duplicate dentries and
  reachability from the root as :func:`~repro.core.invariants.resolve`
  decides them (mount acts on the same verdict), then orphan roots,
  directory cycles, and the page-claim / bitmap reconciliation.

Every check produces a typed :class:`~repro.fsck.findings.Finding` whose
``meta`` is sufficient for :mod:`repro.fsck.repair` to act without
re-walking the volume.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.corestate import DentryLoc
from repro.core.invariants import (
    PAGE_DOUBLE_USE,
    InodeShape,
    Namespace,
    reach,
    violations,
)
from repro.fsck.findings import (
    F_DIR_CYCLE,
    F_DUPLICATE_DENTRY,
    F_ORPHAN_INODE,
    F_PAGE_DOUBLE_USE,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED,
    F_STRIPE_LABEL,
    F_STRIPE_ORPHAN,
    F_SUPERBLOCK,
    F_TX_TORN,
    Finding,
)
from repro.pm.allocator import RESERVATION_TAG, set_pages
from repro.pm.device import PMDevice
from repro.pm.layout import ArrayLabel, Geometry


def _loc_meta(loc: DentryLoc) -> Dict[str, int]:
    return {"tail": loc.tail, "loc_page": loc.page_no, "loc_off": loc.offset}


def _name_str(name: bytes) -> str:
    return name.decode("utf-8", "backslashreplace")


def _target(scans: Dict[int, InodeShape]):
    """fsck's view of a dentry's target: its scanned (valid) record."""
    return {ino: shape.rec for ino, shape in scans.items()}.get


def check_inodes(scans: Dict[int, InodeShape]) -> List[Finding]:
    """Per-inode validation of every scanned inode, in ino order, against
    the full scan table: every violation of :mod:`repro.core.invariants`
    becomes the finding of its class.  A page the inode maps twice is left
    to :func:`check_graph`, whose page claims report it with the holder
    repair keeps."""
    target = _target(scans)
    findings: List[Finding] = []
    for ino in sorted(scans):
        for v in violations(scans[ino], target):
            if v.rule == PAGE_DOUBLE_USE:
                continue
            at = {} if v.loc is None else _loc_meta(v.loc)
            findings.append(Finding(
                v.rule, v.detail, ino=ino, page=v.page, meta={**at, **v.meta},
                name=_name_str(v.dentry.name) if v.dentry else None))
    return findings


# --------------------------------------------------------------------------- #
# Serial graph merge
# --------------------------------------------------------------------------- #


def check_graph(
    device: PMDevice,
    geom: Geometry,
    scans: Dict[int, InodeShape],
    ns: Namespace,
    root_ino: int,
) -> Tuple[List[Finding], int]:
    """Reachability, duplicates, orphans, cycles, page/bitmap accounting,
    from :func:`~repro.core.invariants.resolve`'s verdict ``ns`` on
    ``scans`` (mount builds its shadow table from the same one).

    Returns ``(findings, pages_claimed)``.
    """
    findings: List[Finding] = []

    # -- the namespace rule mount applies too: duplicates, reachability ---- #
    # Over the live dentries no rule rejects (check_inodes reported those).
    parent_of, children, reachable = ns.winners, ns.children, ns.reachable
    for parent, loc, d in ns.losers:
        winner = parent_of.get(d.ino)
        to = (f"seq {winner.dentry.seq} in dir {winner.parent}" if winner
              else f"a later {d.name!r} in dir {parent}")
        findings.append(Finding(
            F_DUPLICATE_DENTRY,
            f"ino {d.ino} is also linked as {d.name!r} in dir {parent} "
            f"(seq {d.seq} loses to {to})",
            ino=parent, page=loc.page_no, name=_name_str(d.name),
            meta=_loc_meta(loc),
        ))
    if root_ino not in scans:
        findings.append(Finding(
            F_SUPERBLOCK,
            f"root inode {root_ino} is not a valid directory record",
            ino=root_ino, meta={"kind": "root"},
        ))

    # -- orphan roots and cycles among the unreachable --------------------- #
    unreachable = [i for i in sorted(scans) if i not in reachable and i != root_ino]
    covered: Set[int] = set()
    for ino in unreachable:
        if ino in parent_of:
            continue
        # No incoming edge at all: an orphan root.  Its subtree rides along
        # when repair reconnects it, so only the root is reported.
        sub = reach(children, ino)
        covered.update(sub)
        rec = scans[ino].rec
        findings.append(Finding(
            F_ORPHAN_INODE,
            f"valid {'dir' if rec.is_dir else 'file'} record reachable from "
            f"no directory ({len(sub)} inode(s) in its subtree)",
            ino=ino, meta={"itype": rec.itype, "subtree": len(sub)},
        ))
    leftovers = [i for i in unreachable if i not in covered]
    reported_cuts: Set[int] = set()
    for ino in leftovers:
        cycle = _find_cycle(parent_of, ino)
        if not cycle:
            continue
        # Cut the edge into the lowest-numbered cycle member; the member
        # becomes an orphan root on the next pass and is quarantined.
        cut = min(cycle)
        if cut in reported_cuts:
            continue
        reported_cuts.add(cut)
        parent, loc, d = parent_of[cut]
        findings.append(Finding(
            F_DIR_CYCLE,
            f"directory cycle {sorted(cycle)}; cutting dentry {d.name!r} "
            f"(dir {parent} -> ino {cut})",
            ino=parent, page=loc.page_no, name=_name_str(d.name),
            meta={**_loc_meta(loc), "cycle": sorted(cycle)},
        ))

    # -- reachable cycles (a dir that is its own descendant) --------------- #
    # With single-parent edges a reachable component cannot cycle (BFS from
    # the root only follows tree edges), but a dentry making the root a
    # child of its own descendant was dropped above as a duplicate only if
    # (ino, gen) collided; a root self-edge shows up as parent_of[root].
    if root_ino in parent_of:
        parent, loc, d = parent_of[root_ino]
        findings.append(Finding(
            F_DIR_CYCLE,
            f"root directory linked as {d.name!r} under dir {parent}",
            ino=parent, page=loc.page_no, name=_name_str(d.name),
            meta=_loc_meta(loc),
        ))

    # -- page claims ------------------------------------------------------- #
    claims = dict(ns.claims)
    findings.extend(Finding(F_PAGE_DOUBLE_USE, v.detail, ino=v.meta["loser"],
                            page=v.page, meta=v.meta) for v in ns.doubles)

    # -- pending transaction log ------------------------------------------- #
    # A sealed-but-uncheckpointed repro.tx redo log.  Its chain pages are
    # legitimately allocated (claim them so they don't read as leaks), but
    # until replay runs the volume may expose a prefix of the transaction —
    # a non-advisory, repairable finding.  A head that fails validation is
    # the discard case: repair clears the seal and the pages surface as
    # ordinary leaks for the existing leak pass.
    from repro.tx.log import parse_log, read_head

    tx_head = read_head(device)
    if tx_head:
        txlog, tx_pages = parse_log(device, geom)
        for page_no in tx_pages:
            claims.setdefault(page_no, (-1, "txlog"))
        meta = {"pages": list(tx_pages), "valid": txlog is not None}
        detail = "transaction log head set but the chain fails validation"
        if txlog is not None:
            meta.update(txid=txlog.txid, ops=len(txlog.records))
            detail = (f"sealed transaction log (txid {txlog.txid}, "
                      f"{len(txlog.records)} op(s)) pending replay")
        findings.append(Finding(F_TX_TORN, detail, page=tx_head, meta=meta))

    # Every member past the first carries an ArrayLabel over its metadata
    # reservation; a mismatch means the stripe shape the data was written
    # under disagrees with what the superblock now claims.
    for d in range(1, geom.devices):
        label = ArrayLabel.unpack(device.load(d * geom.dev_size,
                                              ArrayLabel.SIZE))
        if (not label.valid or label.device_index != d
                or label.device_count != geom.devices
                or label.stripe_pages != geom.stripe_pages
                or label.dev_size != geom.dev_size):
            findings.append(Finding(
                F_STRIPE_LABEL,
                f"member {d} label disagrees with the superblock shape "
                f"({geom.devices} devices, stripe {geom.stripe_pages})",
                meta={"device": d},
            ))
    findings.extend(check_bitmap(device, geom, claims))
    return findings, len(claims)


def check_bitmap(device: PMDevice, geom: Geometry,
                 claims: Dict[int, Tuple[int, str]]) -> List[Finding]:
    """The bitmap against ``claims``: a bit past the last stripe slot, an
    allocated page nobody claims (tagged: a pool reservation, else a leak),
    a claimed page whose bit is clear."""
    findings: List[Finding] = []
    # Read the bitmap at its full *capacity*, not just page_count bytes:
    # on a striped array the last stripe slot sits below the raw capacity,
    # and a set bit past it would be a fragment mapping to no (device,
    # offset) at all — the stripe-map consistency cross-check.
    bitmap = device.load(geom.bitmap_off, geom.bitmap_capacity_bytes)
    for page_no in set_pages(bitmap, geom.page_count + 1,
                             8 * geom.bitmap_capacity_bytes):
        bit = page_no - 1
        findings.append(Finding(
            F_STRIPE_ORPHAN,
            f"bitmap bit {bit} set past the last stripe slot "
            f"({geom.page_count} pages): fragment maps to no device",
            page=page_no, meta={"bit": bit},
        ))
    allocated = set_pages(bitmap, 1, geom.page_count)
    for page_no in allocated:
        if page_no in claims:
            continue
        # A refill stamps every page it pools with the allocator's tag under
        # the same fence that persists the bitmap bit; a page it hands
        # straight out gets no tag, and every caller overwrites a page before
        # linking it.  Tag present → benign warm-pool reservation (advisory,
        # but reclaimable); tag absent → a leak: a page handed out but never
        # linked (the crash window before its caller's fence), or lost.
        head = device.load(geom.page_off(page_no), len(RESERVATION_TAG))
        if head == RESERVATION_TAG:
            findings.append(Finding(
                F_PAGE_RESERVED,
                "pool-reserved page never handed out (bit set, tag intact)",
                page=page_no, advisory=True, meta={},
            ))
        else:
            findings.append(Finding(
                F_PAGE_LEAK,
                "allocated page reachable from no inode",
                page=page_no, meta={},
            ))
    for page_no in sorted(set(claims).difference(allocated)):
        ino, role = claims[page_no]
        findings.append(Finding(
            F_PAGE_UNALLOCATED,
            f"page in use by ino {ino} ({role}) but its bitmap bit is clear",
            ino=ino, page=page_no, meta={},
        ))
    return findings


def _find_cycle(parent_of, start: int) -> Set[int]:
    """Follow unique parent pointers from ``start``; return the cycle hit."""
    path: List[int] = []
    seen: Set[int] = set()
    ino = start
    while ino in parent_of:
        if ino in seen:
            return set(path[path.index(ino):])
        seen.add(ino)
        path.append(ino)
        ino = parent_of[ino][0]
    return set()
