"""§4.5 — Incorrect synchronization for directory buckets (use-after-free).

ArckFS readers traverse hash buckets with no lock, on the (wrong)
assumption that entries are never freed.  A concurrent writer deletes and
frees an entry mid-traversal; the freed node is poisoned and immediately
reusable (the paper reallocates the freed memory to the same end), so the
reader dereferences dangling memory → segmentation fault.

The ArckFS+ patch puts readers in RCU read-side critical sections and
defers the free to a grace period; the reader finishes safely and the node
is reclaimed only afterwards.
"""

from __future__ import annotations

from typing import List

from repro.bugs.harness import BugOutcome, make_fs, race
from repro.core.config import ArckConfig
from repro.errors import SimulatedSegfault
from repro.libfs import paths
from repro.libfs.libfs import LibFS


def colliding_names(fs: LibFS, dir_path: str, want: int = 2) -> List[str]:
    """Find ``want`` file names that land in the same hash bucket."""
    mi = fs._resolve(paths.parse(dir_path), need_dir=True)
    by_bucket = {}
    i = 0
    while True:
        name = f"f{i}"
        b = mi.dir.bucket_index(name.encode())
        by_bucket.setdefault(b, []).append(name)
        if len(by_bucket[b]) >= want:
            return by_bucket[b][:want]
        i += 1


def demonstrate(config: ArckConfig) -> BugOutcome:
    _device, _kernel, fs = make_fs(config)
    fs.mkdir("/dir")
    lookup_target, victim = colliding_names(fs, "/dir")
    # Insert the lookup target first so the victim sits *ahead* of it in the
    # chain (inserts are at the head): the reader must walk past the victim.
    fs.close(fs.creat(f"/dir/{lookup_target}"))
    fs.close(fs.creat(f"/dir/{victim}"))
    victim_b = victim.encode()

    exc1, exc2 = race(
        first=lambda: fs.stat(f"/dir/{lookup_target}"),
        second=lambda: fs.unlink(f"/dir/{victim}"),
        parkpoint="dir.bucket_traverse",
        predicate=lambda node: getattr(node, "name", None) == victim_b,
    )
    if exc2 is not None:
        raise exc2
    manifested = isinstance(exc1, SimulatedSegfault)
    if manifested:
        detail = f"reader: {exc1}"
    else:
        if exc1 is not None:
            raise exc1
        pending = fs.rcu.pending_callbacks()
        fs.quiesce()
        freed = fs.freelist.frees
        detail = (
            f"RCU deferred the free ({pending} callback(s) pending during the "
            f"read; {freed} freed after the grace period)"
        )
    return BugOutcome(
        bug="4.5",
        title="Incorrect synchronization for directory bucket",
        config_name=config.name,
        manifested=manifested,
        detail=detail,
    )
