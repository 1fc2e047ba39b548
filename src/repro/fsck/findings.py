"""The fsck finding taxonomy and whole-volume check report.

Every inconsistency the checker can observe is classified into one of the
``F_*`` classes below.  The taxonomy is the union of what the six Table-1
bugs and the §3.1 attack can leave in PM core state:

========================  ====================================================
class                     produced by
========================  ====================================================
``superblock``            unformatted / corrupted device, invalid root record
``torn-dentry``           §4.2: commit marker persisted ahead of the body
``dangling-dentry``       §4.2: marker persisted ahead of the inode record;
                          any dentry whose target record is free / stale
``duplicate-dentry``      §4.1: crashed or rolled-back rename leaving both
                          the old and the new dentry live
``orphan-inode``          §4.3: release unmapping a parent under a writer
                          (valid inode record reachable from no directory)
``dir-cycle``             §4.6 / §3.1: concurrent renames making a directory
                          its own descendant
``page-double-use``       a page claimed by two owners (cross-linked chains)
``page-leak``             allocated bit set, page reachable from no inode
``page-reserved``         a pool reservation (bit set, page stamped with the
                          allocator's tag) never linked anywhere — a legal
                          warm-pool state, *advisory* but reclaimable
``page-unallocated``      page in use but its bitmap bit is clear
``chain-corrupt``         a log/index chain pointing out of range or cycling
``bad-page-kind``         a chain page whose header kind disagrees with use
``size-mismatch``         file size beyond the capacity of its mapped pages
``nlink-mismatch``        link count disagreeing with the reconstructed tree
``aux-mismatch``          §4.4/§4.5: DRAM auxiliary state diverging from PM
                          (optional cross-check; DRAM-only, not repairable)
``tx-torn``               a sealed ``repro.tx`` redo log left pending by a
                          crash between seal and checkpoint: the volume may
                          show a *prefix* of the transaction until the log
                          is replayed (repair = replay; corrupt = discard)
``stripe-orphan``         a bitmap bit set past the last stripe slot: the
                          fragment maps to no (device, offset) on a striped
                          array — an orphan no inode can ever claim
``stripe-label``          a member device's array label disagreeing with the
                          superblock's recorded shape (count / stripe width
                          / member size)
========================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import invariants as rules

F_SUPERBLOCK = "superblock"
# The per-inode classes are the names of the rules that produce them.
F_TORN_DENTRY = rules.TORN_DENTRY
F_DANGLING_DENTRY = rules.DANGLING_DENTRY
F_DUPLICATE_DENTRY = "duplicate-dentry"
F_ORPHAN_INODE = "orphan-inode"
F_DIR_CYCLE = "dir-cycle"
F_PAGE_DOUBLE_USE = rules.PAGE_DOUBLE_USE
F_PAGE_LEAK = "page-leak"
F_PAGE_RESERVED = "page-reserved"
F_PAGE_UNALLOCATED = "page-unallocated"
F_CHAIN_CORRUPT = rules.CHAIN_CORRUPT
F_BAD_PAGE_KIND = rules.BAD_PAGE_KIND
F_SIZE_MISMATCH = rules.SIZE_MISMATCH
F_NLINK_MISMATCH = rules.NLINK_MISMATCH
F_AUX_MISMATCH = "aux-mismatch"
F_TX_TORN = "tx-torn"
F_STRIPE_ORPHAN = "stripe-orphan"
F_STRIPE_LABEL = "stripe-label"

ALL_CLASSES = (
    F_SUPERBLOCK,
    F_TORN_DENTRY,
    F_DANGLING_DENTRY,
    F_DUPLICATE_DENTRY,
    F_ORPHAN_INODE,
    F_DIR_CYCLE,
    F_PAGE_DOUBLE_USE,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED,
    F_CHAIN_CORRUPT,
    F_BAD_PAGE_KIND,
    F_SIZE_MISMATCH,
    F_NLINK_MISMATCH,
    F_AUX_MISMATCH,
    F_TX_TORN,
    F_STRIPE_ORPHAN,
    F_STRIPE_LABEL,
)

#: The classes only an un-fenced commit-marker protocol (§4.2) can reach on
#: a crash image: a dentry whose marker says "committed" but whose body or
#: target inode record never persisted.  Crash-enumeration tests filter on
#: these — orphan inodes / leaked pages are reachable (and repairable) crash
#: states even under the ArckFS+ fence.
TORN_CLASSES = frozenset({F_TORN_DENTRY, F_DANGLING_DENTRY})

#: The classes a crash inside a ``repro.tx`` commit can leave behind.  A
#: sealed-but-unapplied redo log is *pending*, not corrupt — mount replays
#: it — but an offline checker must still surface it: until replay runs the
#: volume may expose a prefix of the transaction, violating all-or-nothing.
#: Crash-enumeration tests assert no member of this set survives recovery.
TX_CLASSES = frozenset({F_TX_TORN})


@dataclass
class Finding:
    """One classified inconsistency.

    ``meta`` carries whatever the repairer needs to act on it (dentry
    location, truncation point, bitmap bit, ...); it is reported verbatim
    in the JSON output.
    """

    cls: str
    detail: str
    ino: Optional[int] = None
    page: Optional[int] = None
    name: Optional[str] = None
    repairable: bool = True
    #: Advisory findings are legal volume states (e.g. warm per-thread page
    #: pools leaving tagged reservations) — they never make a report dirty,
    #: but ``--repair`` still reconciles them.
    advisory: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "class": self.cls,
            "detail": self.detail,
            "ino": self.ino,
            "page": self.page,
            "name": self.name,
            "repairable": self.repairable,
            "advisory": self.advisory,
            "meta": {k: v for k, v in self.meta.items()},
        }

    def __str__(self) -> str:
        where = []
        if self.ino is not None:
            where.append(f"ino {self.ino}")
        if self.page is not None:
            where.append(f"page {self.page}")
        if self.name is not None:
            where.append(f"name {self.name!r}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.cls}{loc}: {self.detail}"


@dataclass
class FsckReport:
    """The result of one :func:`repro.fsck.run_fsck` invocation.

    The report counts; it does not price.  ``work`` holds each valid
    inode's (pages read, dentries parsed), which with ``inodes_total`` and
    ``pages_claimed`` is what ``CostModel.fsck_phase_time`` prices into
    modeled time at any worker count.  ``wall_ns`` is real host time and
    is reported but never asserted (CI machines differ).
    """

    findings: List[Finding] = field(default_factory=list)
    passes: int = 1
    repairs: Dict[str, int] = field(default_factory=dict)

    inodes_total: int = 0
    inodes_valid: int = 0
    dirs: int = 0
    files: int = 0
    dentries: int = 0
    pages_claimed: int = 0
    bytes_scanned: int = 0
    work: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    wall_ns: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing but advisory findings were observed."""
        return all(f.advisory for f in self.findings)

    def classes(self) -> List[str]:
        """Distinct finding classes present, in taxonomy order."""
        present = {f.cls for f in self.findings}
        return [c for c in ALL_CLASSES if c in present]

    def by_class(self, cls: str) -> List[Finding]:
        return [f for f in self.findings if f.cls == cls]

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "findings": [f.as_dict() for f in self.findings],
            "classes": self.classes(),
            "passes": self.passes,
            "repairs": dict(self.repairs),
            "stats": {
                "inodes_total": self.inodes_total,
                "inodes_valid": self.inodes_valid,
                "dirs": self.dirs,
                "files": self.files,
                "dentries": self.dentries,
                "pages_claimed": self.pages_claimed,
                "bytes_scanned": self.bytes_scanned,
            },
            "timing": {"wall_ns": self.wall_ns},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"fsck: {self.inodes_valid}/{self.inodes_total} inodes "
            f"({self.dirs} dirs, {self.files} files), "
            f"{self.dentries} dentries, {self.pages_claimed} pages, "
            f"{self.passes} pass(es)"
        ]
        if self.repairs:
            fixed = ", ".join(f"{c}={n}" for c, n in sorted(self.repairs.items()))
            lines.append(f"repaired: {fixed}")
        if self.clean:
            lines.append("volume is CLEAN")
            if self.findings:
                lines.append(f"{len(self.findings)} advisory finding(s):")
                lines.extend(f"  {f}" for f in self.findings)
        else:
            lines.append(f"{len(self.findings)} finding(s):")
            lines.extend(f"  {f}" for f in self.findings)
        return "\n".join(lines)
