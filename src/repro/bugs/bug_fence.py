"""§4.2 — Partially persisted dentry and inode (missing memory fence).

The creation protocol flushes the dentry body and inode record without a
fence, then sets and flushes the commit marker.  Until the *final* fence,
the marker's cache line can be evicted — and hence persisted — ahead of the
body/inode lines.  The paper makes the window observable by flushing the
marker line and sleeping right after the marker store; we place a crash
point there (failpoint ``create.post_marker``) and *enumerate every
reachable crash state* of the device.

Manifestation: at least one crash image in which whole-volume fsck finds a
torn or dangling dentry — a valid commit marker over name bytes or an inode
record that never persisted.  Orphan inodes and leaked pages are *legal*
crash states (repairable even under ArckFS+), so the checker filters on
:data:`~repro.fsck.findings.TORN_CLASSES`.  The ArckFS+ fence removes every
torn state.
"""

from __future__ import annotations

from repro.bugs.harness import BugOutcome, make_fs
from repro.concurrency.failpoints import failpoints
from repro.core.config import ArckConfig
from repro.errors import CrashPoint
from repro.fsck import TORN_CLASSES, fsck_checker
from repro.pm.crash import explore
from repro.pm.device import PMDevice

#: Long enough that the dentry record spans two cache lines.
VICTIM = "/victim-with-a-rather-long-file-name.dat"


def _crash_at_marker(config: ArckConfig) -> PMDevice:
    """Run creat() and 'crash' right after the commit-marker flush."""
    device, _kernel, fs = make_fs(config)

    def crash(_ctx):
        raise CrashPoint("machine dies after the marker store+flush")

    failpoints.install("create.post_marker", crash)
    try:
        fs.creat(VICTIM)
        raise AssertionError("crash point was not reached")
    except CrashPoint:
        pass
    finally:
        failpoints.remove("create.post_marker")
    return device


def demonstrate(config: ArckConfig) -> BugOutcome:
    device = _crash_at_marker(config)
    [point] = explore(device, None, fsck_checker(classes=TORN_CLASSES),
                      budget=16384, first=True)
    manifested = bool(point.verdicts)
    detail = (
        f"{point.states} reachable crash states; "
        + (f"fsck violation: {point.verdicts[0]}" if manifested
           else "every crash state is fsck-clean (no torn/dangling dentry)")
    )
    return BugOutcome(
        bug="4.2",
        title="Partially persisted dentry and inode",
        config_name=config.name,
        manifested=manifested,
        detail=detail,
    )
