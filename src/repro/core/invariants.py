"""The per-inode structural rules: the one place that judges an inode's
on-media shape, for the kernel verifier, fsck and mount alike (their own
copies drifted, and two readers of one core state disagreeing is what the
paper's bugs are made of).

:func:`read_shape` is the one reader of an inode's records (one pass, for
the verifier, the LibFS rebuild, mount and fsck alike), and
:func:`resolve_dentries` says what a directory contains.
:func:`violations` yields a :class:`Violation` per broken rule, named after
the fsck class reporting it.  The caller supplies what a dentry's target
looks like: ``target(ino)``, anything with ``gen`` and ``itype``, or None.
The verifier's shadow-table checks are not here.

The volume-wide half is here too, for mount and fsck alike: :func:`scan`
walks every slot of the inode table into shapes, :func:`claim_pages`
credits each page to one inode, and :func:`resolve` applies the one
namespace rule to them — which live record links each inode, which lose,
and what the root reaches.  pFSCK's split of scan and
merge: mount acts on the verdict, fsck reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.core.corestate import CoreState, DentryLoc, TailCursor
from repro.errors import ChainCorrupt
from repro.pm.layout import (
    DENTRY_HEADER,
    ITYPE_DIR,
    ITYPE_FILE,
    INDEX_SLOTS,
    MAX_NAME,
    PAGE_KIND_DIRLOG,
    PAGE_KIND_INDEX,
    PAGE_SIZE,
    Dentry,
    InodeRecord,
    legal_name,
)

NLINK_MISMATCH = "nlink-mismatch"
CHAIN_CORRUPT = "chain-corrupt"
BAD_PAGE_KIND = "bad-page-kind"
PAGE_DOUBLE_USE = "page-double-use"
SIZE_MISMATCH = "size-mismatch"
TORN_DENTRY = "torn-dentry"
DANGLING_DENTRY = "dangling-dentry"


@dataclass
class Chain:
    """A page chain's good prefix with each page's header kind, the
    :class:`ChainCorrupt` that ended it (None: it reached 0) and, for a
    directory-log tail, the payload bytes used on its last page."""

    pages: List[int] = field(default_factory=list)
    kinds: List[int] = field(default_factory=list)
    error: Optional[ChainCorrupt] = None
    used: int = 0

    def cursor(self) -> TailCursor:
        """The append cursor of the tail this chain is (raising its error)."""
        if self.error is not None:
            raise self.error
        return TailCursor(self.pages[0], self.pages[-1], self.used) if self.pages else TailCursor()


def walk(core: CoreState, head: int) -> Chain:
    chain = Chain()
    try:
        for page_no, hdr in core.walk_chain(head):
            chain.pages.append(page_no)
            chain.kinds.append(hdr.kind)
    except ChainCorrupt as exc:
        chain.error = exc
    return chain


@dataclass
class InodeShape:
    """One valid inode as the rules read it: a directory's ``(tail index,
    chain)`` per non-empty tail and the records on their good prefixes; a
    file's index chain, the data pages its good prefix maps up to the first
    empty slot, and the slot out of range (``{"slot", "page", "last_good",
    "slot_addr"}``), if one is."""

    ino: int
    rec: InodeRecord
    tails: List[Tuple[int, Chain]] = field(default_factory=list)
    records: List[Tuple[DentryLoc, Dentry]] = field(default_factory=list)
    index: Chain = field(default_factory=Chain)
    data: List[int] = field(default_factory=list)
    data_error: Optional[Dict[str, int]] = None

    def error(self) -> Optional[ChainCorrupt]:
        """The first :class:`ChainCorrupt` the walker raised: tails in
        order, then the index chain, then its data slots."""
        err = self.data_error
        return next((c.error for _i, c in self.tails + [(0, self.index)] if c.error),
                    err and ChainCorrupt(err["page"], err["last_good"]))

    def parsed(self) -> bool:
        """Did every walk reach its end?"""
        return self.error() is None

    def cursor(self, tail: int) -> TailCursor:
        """Tail ``tail``'s append cursor (:meth:`Chain.cursor`)."""
        return dict(self.tails).get(tail, Chain()).cursor()

    def pages(self) -> List[int]:
        """Every page the walks reached: the good prefix of each chain and
        the data pages mapped on it."""
        return ([p for _idx, chain in self.tails for p in chain.pages]
                + self.index.pages + self.data)


def read_tail(core: CoreState, head: int, tail: int
              ) -> Tuple[Chain, List[Tuple[DentryLoc, Dentry]]]:
    """One directory-log tail: each page's header read and its records
    parsed once (the one caller of :meth:`CoreState.page_dentries`)."""
    chain, records = walk(core, head), []
    for page_no in chain.pages:
        found, chain.used = core.page_dentries(page_no, tail)
        records += found
    return chain, records


def read_shape(core: CoreState, ino: int, rec: InodeRecord) -> InodeShape:
    """A directory's tails and their records, or a file's index chain and
    the data pages it maps; a walk's :class:`ChainCorrupt` is kept."""
    shape = InodeShape(ino=ino, rec=rec)
    if rec.is_dir:
        for tail_idx, head in enumerate(rec.tails):
            if head:
                chain, records = read_tail(core, head, tail_idx)
                shape.tails.append((tail_idx, chain))
                shape.records += records
        return shape
    shape.index = walk(core, rec.index_root)
    try:
        for page_no in core.data_pages(shape.index.pages):
            shape.data.append(page_no)
    except ChainCorrupt as exc:
        slot = len(shape.data)
        shape.data_error = {
            "slot": slot, "page": exc.bad, "last_good": exc.last_good,
            "slot_addr": core.index_slot_addr(shape.index.pages, slot)}
    return shape


def pages_read(shape: InodeShape) -> int:
    """The chain pages :func:`read_shape` read for ``shape``: its
    directory-log tails, or its file's page index."""
    return (sum(len(chain.pages) for _idx, chain in shape.tails)
            + len(shape.index.pages))


def scan(core: CoreState, records: List[InodeRecord]) -> Dict[int, InodeShape]:
    """The shapes of the valid ones of ``records`` (the inode table, by
    ino), by ino: self-contained per inode, so any split of the table could
    run in parallel (``CostModel.fsck_phase_time`` prices it)."""
    return {ino: read_shape(core, ino, rec)
            for ino, rec in enumerate(records) if rec.valid}


@dataclass
class Violation:
    """One broken rule; ``meta`` is what fsck's finding of class ``rule``
    carries (a dentry's place is ``loc``)."""

    rule: str
    detail: str
    page: Optional[int] = None
    meta: Dict[str, int] = field(default_factory=dict)
    loc: Optional[DentryLoc] = None
    dentry: Optional[Dentry] = None


def violations(shape: InodeShape,
               target: Callable[[int], object]) -> Iterator[Violation]:
    """Every rule ``shape`` breaks."""
    rec = shape.rec
    want = 2 if rec.is_dir else 1
    if rec.nlink != want:
        yield Violation(NLINK_MISMATCH, f"{'dir' if rec.is_dir else 'file'} "
                        f"nlink {rec.nlink}, expected {want} for its type",
                        meta={"expected": want})
    if rec.is_dir:
        chains = [(f"dir log tail {i}", c, {"kind": "tail", "tail": i})
                  for i, c in shape.tails]
    else:
        chains = [("file index chain", shape.index, {"kind": "index"})]
    kinds: Dict[int, int] = {}
    for what, chain, meta in chains:
        if chain.error is not None:
            bad = chain.error.bad
            yield Violation(CHAIN_CORRUPT, f"{what} corrupt at page {bad}", bad,
                            {**meta, "bad": bad, "last_good": chain.error.last_good})
        for page_no, kind in zip(chain.pages, chain.kinds):
            if page_no in kinds:  # a page on two tails
                yield Violation(PAGE_DOUBLE_USE, f"{what} repeats page {page_no}",
                                page_no)
            kinds[page_no] = kind
    err = shape.data_error
    if err is not None:
        yield Violation(CHAIN_CORRUPT, f"data slot {err['slot']} points at page "
                        f"{err['page']} (out of range)", err["page"],
                        {"kind": "data", **err})
    capacity = len(shape.data) * PAGE_SIZE
    if not rec.is_dir and shape.parsed() and rec.size > capacity:
        yield Violation(SIZE_MISMATCH, f"size {rec.size} exceeds mapped "
                        f"capacity {capacity}", meta={"capacity": capacity})
    want, what = ((PAGE_KIND_DIRLOG, "dir log") if rec.is_dir
                  else (PAGE_KIND_INDEX, "file index"))
    for page_no, kind in kinds.items():
        if kind != want:
            yield Violation(BAD_PAGE_KIND, f"{what} page has kind {kind}, "
                            f"expected {want}", page_no, {"expected": want})
    mapped = set(shape.index.pages)
    for slot, page_no in enumerate(shape.data):
        if page_no in mapped:
            yield Violation(PAGE_DOUBLE_USE, f"data slot {slot} maps page "
                            f"{page_no} a second time", page_no, {"slot": slot})
        mapped.add(page_no)
    for loc, d in shape.records:
        v = dentry_violation(loc, d, target) if d.live else None
        if v is not None:
            yield v


def dentry_violation(loc: DentryLoc, d: Dentry,
                     target: Callable[[int], object]) -> Optional[Violation]:
    """The rule the live record ``d`` breaks, if any: its body must be one
    a committed create writes — a name that fits the record and that a
    path can address (a NUL is what a body that never persisted reads
    as), a file or directory type — and its target must exist with its
    generation and type.  Judged per record, before duplicates are
    resolved by ``seq``, so a bad record cannot hide behind a good one."""
    if d.name_len > MAX_NAME or DENTRY_HEADER + d.name_len > d.rec_len:
        why = (f"illegal dentry name: name_len {d.name_len} overruns its "
               f"{d.rec_len}-byte record")
    elif not legal_name(d.name):
        why = f"illegal dentry name {d.name!r}"
    elif d.itype not in (ITYPE_FILE, ITYPE_DIR):
        why = f"dentry {d.name!r} has invalid itype {d.itype}"
    else:
        t = target(d.ino)
        if t is None:
            why = f"dentry {d.name!r} references unknown inode {d.ino}"
        elif (t.gen, t.itype) != (d.gen, d.itype):
            why = (f"dentry {d.name!r} (generation {d.gen}, itype {d.itype}) "
                   f"is stale for inode {d.ino} (generation {t.gen}, "
                   f"itype {t.itype})")
        else:
            return None
        return Violation(DANGLING_DENTRY, why, loc.page_no, {"target": d.ino},
                         loc, d)
    return Violation(TORN_DENTRY, why, loc.page_no, loc=loc, dentry=d)


class Edge(NamedTuple):
    """A live dentry record read as a namespace edge: ``parent`` holds
    ``dentry`` at ``loc``."""

    parent: int
    loc: DentryLoc
    dentry: Dentry


def _rank(edge: Edge) -> Tuple[int, int, int, int]:
    return (edge.dentry.seq, edge.parent, edge.loc.page_no, edge.loc.offset)


@dataclass
class Namespace:
    """:func:`resolve`'s verdict on a scanned volume."""

    #: child ino -> the one edge that links it.
    winners: Dict[int, Edge] = field(default_factory=dict)
    #: every other live record the rules accept (a crashed rename's residue).
    losers: List[Edge] = field(default_factory=list)
    #: parent ino -> the children its winning edges link.
    children: Dict[int, List[int]] = field(default_factory=dict)
    #: what the root reaches over the winning edges, the root included.
    reachable: Set[int] = field(default_factory=set)
    #: page -> ``(ino, role)`` of the claim that stands (:func:`claim_pages`).
    claims: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: a ``page-double-use`` violation per claim that does not.
    doubles: List[Violation] = field(default_factory=list)


def claim_pages(shapes: Iterable[InodeShape]
                ) -> Tuple[Dict[int, Tuple[int, str]], List[Violation]]:
    """``page -> (ino, role)`` of each page's first claimant among
    ``shapes``, in ino order — a directory's tails, then a file's index
    chain, then its data pages — and a ``page-double-use`` violation for
    every later claim.  A chain stops claiming at its first page claimed
    before it: the rest of it hangs off a foreign page.  A file's data
    stops where the repair cuts it (past its own index pages, or at its
    first claimed page).  A violation's ``meta`` names the ``loser`` and
    the ``holder``."""
    claims: Dict[int, Tuple[int, str]] = {}
    doubles: List[Violation] = []
    for shape in sorted(shapes, key=lambda s: s.ino):
        ino = shape.ino
        chains = [("dir", chain, {"kind": "tail", "tail": tail_idx})
                  for tail_idx, chain in shape.tails]
        chains.append(("index", shape.index, {"kind": "index"}))
        data = shape.data
        for role, chain, head_meta in chains:
            pages = chain.pages
            for pos, page_no in enumerate(pages):
                holder = claims.get(page_no)
                if holder is None:
                    claims[page_no] = (ino, role)
                    continue
                doubles.append(Violation(
                    PAGE_DOUBLE_USE, f"{role} chain page of ino {ino} already "
                    f"claimed by ino {holder[0]} ({holder[1]})", page_no,
                    {**head_meta, "loser": ino, "holder": holder[0],
                     "last_good": pages[pos - 1] if pos else 0, "bad": page_no}))
                if role == "index":
                    data = data[:pos * INDEX_SLOTS]
                break
        for slot, page_no in enumerate(data):
            holder = claims.get(page_no)
            if holder is None:
                claims[page_no] = (ino, "data")
                continue
            doubles.append(Violation(
                PAGE_DOUBLE_USE, f"data page of ino {ino} (slot {slot}) already "
                f"claimed by ino {holder[0]} ({holder[1]})", page_no,
                {"kind": "data", "loser": ino, "slot": slot, "holder": holder[0]}))
            break
    return claims, doubles


def resolve_dentries(records: Iterable[Tuple[DentryLoc, Dentry]]
                     ) -> Dict[bytes, Tuple[Dentry, DentryLoc]]:
    """A directory's contents, ``name -> (dentry, loc)``: live records,
    duplicate (ino, gen) resolved in favour of the highest ``seq`` (a
    crashed rename can leave both the old and the new dentry)."""
    best: Dict[bytes, Tuple[Dentry, DentryLoc]] = {}
    by_child: Dict[Tuple[int, int], Dentry] = {}
    for loc, d in records:
        if not d.live:
            continue
        key = (d.ino, d.gen)
        prev = by_child.get(key)
        if prev is not None and d.seq <= prev.seq:
            continue  # stale duplicate from a crashed rename
        if prev is not None and prev.name in best and best[prev.name][0] is prev:
            del best[prev.name]
        by_child[key] = d
        holder = best.get(d.name)
        if holder is None or d.seq >= holder[0].seq:
            best[d.name] = (d, loc)  # a same-name conflict: the higher seq wins
    return best


def resolve(shapes: Dict[int, InodeShape], root: int) -> Namespace:
    """The one namespace rule, over :func:`scan`'s shapes.

    A directory reads a log page's records only if :func:`claim_pages`
    credits the page to it: where two directories' chains reach one page,
    its records are one directory's, never an edge of both.  A live record
    :func:`dentry_violation` rejects is set aside.  Within a directory
    :func:`resolve_dentries` decides (highest ``seq`` per inode,
    then per name); across directories the highest ``seq`` wins, ties
    broken by ``(parent, page, offset)``, so the verdict is a function of
    the image alone.  Reachability follows the winners from ``root``
    (nothing, when ``root`` has no valid record)."""
    ns = Namespace()
    ns.claims, ns.doubles = claim_pages(shapes.values())
    owner = ns.claims.get
    target = {ino: shape.rec for ino, shape in shapes.items()}.get
    for ino, shape in shapes.items():
        kept = [(loc, d) for loc, d in shape.records
                if d.live and owner(loc.page_no, (None,))[0] == ino
                and dentry_violation(loc, d, target) is None]
        won = {loc for _d, loc in resolve_dentries(kept).values()}
        for loc, d in kept:
            edge, prev = Edge(ino, loc, d), ns.winners.get(d.ino)
            if loc in won and (prev is None or _rank(edge) > _rank(prev)):
                ns.winners[d.ino] = edge
                edge = prev
            if edge is not None:
                ns.losers.append(edge)
    for child, edge in ns.winners.items():
        ns.children.setdefault(edge.parent, []).append(child)
    if root in shapes:
        ns.reachable = reach(ns.children, root)
    return ns


def reach(children: Dict[int, List[int]], root: int) -> Set[int]:
    """``root`` and every inode its ``children`` edges lead to."""
    out: Set[int] = set()
    stack = [root]
    while stack:
        ino = stack.pop()
        if ino not in out:
            out.add(ino)
            stack.extend(children.get(ino, ()))
    return out
