"""Optional cross-check of a LibFS's DRAM auxiliary state against PM.

The kernel-facing passes only trust core state; this module adds the
other half of the paper's state-split story: the §4.4 and §4.5 bugs leave
the *auxiliary* state (the per-directory DRAM hash tables) disagreeing
with the committed PM dentries while the volume itself stays well-formed.
``run_fsck(..., libfs=fs)`` walks every directory the LibFS currently
holds and reports:

* a committed live PM dentry missing from the aux index (§4.4: a racing
  remove observed the aux insert-before-append window, or vice versa);
* an aux node with no committed PM dentry behind it (``loc is None``
  outside any syscall — the same window, seen from the other side);
* a poisoned (freed) node still linked in a bucket, and, via
  :func:`check_node_ref`, a freed node still *referenced* by a parked
  reader (§4.5's use-after-free hazard, checked without dereferencing).

Aux findings are DRAM-only: they are not repairable by an offline checker
(the fix is rebuilding the aux index from PM, which the LibFS does on
re-acquire), so they carry ``repairable=False``.
"""

from __future__ import annotations

from typing import List

from repro.core.corestate import CoreState
from repro.core.invariants import read_shape, resolve_dentries
from repro.fsck.findings import F_AUX_MISMATCH, Finding
from repro.pm.layout import Geometry


def _bucket_nodes(table):
    """Walk the raw bucket chains without the read-side discipline (no
    failpoints, no poison faulting) — fsck observes, it does not crash."""
    for bucket in tuple(table.buckets.values()):
        node = bucket.head
        seen = 0
        while node is not None and seen < 1 << 16:
            yield node
            node = node.next
            seen += 1


def check_libfs_aux(device, geom: Geometry, fs) -> List[Finding]:
    """Compare every directory index held by ``fs`` against PM core state."""
    core = CoreState(device, geom)
    findings: List[Finding] = []
    inodes = getattr(fs, "_inodes", {})
    for ino, mi in sorted(inodes.items()):
        if mi.dir is None:
            continue
        rec = core.read_inode(ino)
        if not rec.valid or not rec.is_dir:
            continue
        shape = read_shape(core, ino, rec)
        if not shape.parsed():
            continue  # chain corruption is the structural passes' job
        committed = resolve_dentries(shape.records)
        aux = {}
        for node in _bucket_nodes(mi.dir):
            if node.poisoned:
                findings.append(Finding(
                    F_AUX_MISMATCH,
                    f"freed (poisoned) node {node.name!r} still linked in "
                    f"the aux index of dir {ino}",
                    ino=ino, name=node.name.decode("utf-8", "backslashreplace"),
                    repairable=False, meta={"side": "aux-poisoned"},
                ))
                continue
            aux[node.name] = node
        for name, (d, _loc) in committed.items():
            node = aux.get(name)
            if node is None:
                findings.append(Finding(
                    F_AUX_MISMATCH,
                    f"committed dentry {name!r} (ino {d.ino}) missing from "
                    f"the aux index of dir {ino}",
                    ino=ino, name=name.decode("utf-8", "backslashreplace"),
                    repairable=False, meta={"side": "core-only",
                                            "target": d.ino},
                ))
            elif node.ino != d.ino or node.gen != d.gen:
                findings.append(Finding(
                    F_AUX_MISMATCH,
                    f"aux entry {name!r} maps to ino {node.ino} gen "
                    f"{node.gen}, PM says ino {d.ino} gen {d.gen}",
                    ino=ino, name=name.decode("utf-8", "backslashreplace"),
                    repairable=False, meta={"side": "diverged"},
                ))
        for name, node in aux.items():
            if name in committed:
                continue
            findings.append(Finding(
                F_AUX_MISMATCH,
                f"aux entry {name!r} (ino {node.ino}) has no committed PM "
                "dentry behind it",
                ino=ino, name=name.decode("utf-8", "backslashreplace"),
                repairable=False,
                meta={"side": "aux-only",
                      "uncommitted": node.loc is None},
            ))
    return findings


def check_node_ref(node) -> List[Finding]:
    """Check one reader-held aux node reference for the §4.5 hazard.

    A lock-free reader parked mid-traversal holds a bare pointer; if the
    node has been freed (poisoned) under it, resuming the reader faults.
    fsck can certify the hazard without dereferencing.
    """
    if getattr(node, "poisoned", False):
        return [Finding(
            F_AUX_MISMATCH,
            "reader-held reference to freed directory entry "
            f"(was {node.name!r})",
            name=node.name.decode("utf-8", "backslashreplace"),
            repairable=False, meta={"side": "reader-uaf"},
        )]
    return []
