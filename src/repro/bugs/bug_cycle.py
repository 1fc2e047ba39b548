"""§4.6 — Directory cycles.

Two triggering cases, straight from the paper:

1. concurrent cross-directory renames of directories — e.g.
   ``rename(/c, /a/b/c2)`` racing ``rename(/a, /c/d/a2)``: each passes its
   own checks against the pre-rename tree, both apply, and the two subtrees
   now contain each other;
2. renaming a directory into one of its own descendants.

ArckFS+ fixes (1) with the kernel-global rename lease (the
``s_vfs_rename_mutex`` analogue, implemented as a lease with timeout so a
malicious holder cannot block renames forever) and (2) with a LibFS
descendant check.
"""

from __future__ import annotations

from typing import Set

from repro.bugs.harness import BugOutcome, make_fs, race
from repro.core.config import ArckConfig
from repro.core.corestate import CoreState
from repro.core.invariants import read_shape, resolve_dentries
from repro.errors import FSError, WouldLoop
from repro.pm.layout import ITYPE_DIR


def has_cycle(core: CoreState, start_ino: int) -> bool:
    """DFS over the *core state* dentry graph, tracking the current path."""

    def walk(ino: int, path: Set[int]) -> bool:
        if ino in path:
            return True
        rec = core.read_inode(ino)
        if not rec.valid or not rec.is_dir:
            return False
        path = path | {ino}
        for d, _loc in resolve_dentries(read_shape(core, ino, rec).records).values():
            if d.itype == ITYPE_DIR and walk(d.ino, path):
                return True
        return False

    return walk(start_ino, set())


def _case_descendant(config: ArckConfig) -> BugOutcome:
    device, kernel, fs = make_fs(config)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    ino_a = kernel_child(fs, "/a")
    try:
        fs.rename("/a", "/a/b/suba")
        blocked = False
    except WouldLoop:
        blocked = True
    core = CoreState(device, kernel.geom)
    cyclic = has_cycle(core, ino_a)
    manifested = cyclic and not blocked
    detail = (
        "directory renamed into its own descendant; core state is cyclic"
        if manifested
        else ("descendant check refused the rename" if blocked else "no cycle")
    )
    return BugOutcome("4.6", "Directory cycle (self-descendant)", config.name,
                      manifested, detail)


def _case_concurrent(config: ArckConfig) -> BugOutcome:
    device, kernel, fs = make_fs(config)
    for path in ("/a", "/a/b", "/c", "/c/d"):
        fs.mkdir(path)
    ino_a = kernel_child(fs, "/a")
    ino_c = kernel_child(fs, "/c")
    exc1, exc2 = race(
        first=lambda: fs.rename("/c", "/a/b/c2"),
        second=lambda: fs.rename("/a", "/c/d/a2"),
        parkpoint="rename.pre_apply",
    )
    for exc in (exc1, exc2):
        if exc is not None and not isinstance(exc, FSError):
            raise exc
    core = CoreState(device, kernel.geom)
    cyclic = has_cycle(core, ino_a) or has_cycle(core, ino_c)
    detail = (
        "concurrent cross renames created a cycle (a⊂..⊂c⊂..⊂a)"
        if cyclic
        else f"rename lease serialized them; second rename: {exc2 or 'ok'}"
    )
    return BugOutcome("4.6", "Directory cycle (concurrent renames)", config.name,
                      cyclic, detail)


def kernel_child(fs, path: str) -> int:
    return fs.stat(path).ino


def demonstrate(config: ArckConfig) -> BugOutcome:
    concurrent = _case_concurrent(config)
    descendant = _case_descendant(config)
    manifested = concurrent.manifested or descendant.manifested
    detail = concurrent.detail if concurrent.manifested else descendant.detail
    return BugOutcome(
        bug="4.6",
        title="Directory cycle",
        config_name=config.name,
        manifested=manifested,
        detail=detail,
    )
