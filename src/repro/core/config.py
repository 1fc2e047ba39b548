"""Configuration: which of the six ArckFS+ patches are applied.

Every bug the paper identifies (Table 1) is an independent toggle, so tests
can demonstrate each bug in isolation and each patch's effect.  The two
presets are the systems the paper evaluates:

* :data:`ARCKFS` — the SOSP'23 artifact, all six bugs present;
* :data:`ARCKFS_PLUS` — the enhanced system, all six patches applied.

The flags are consumed by both the LibFS (``repro.libfs``) and the kernel
controller/verifier (``repro.kernel``), matching the paper: some patches are
LibFS-side (fence, locking, RCU), some kernel-side (shadow parent pointer,
global rename lease), some both (the directory-relocation protocol).

The rule for this class: a field here is a Table-1 toggle or has two
callers with different values.  Every field is a toggle.  *When* the kernel
verifies is not configurable: at every commit, release and revoke, and on
trust-group exit (§5.4); and it verifies on the calling thread —
parallel verification is priced by the cost model
(``CostModel.verify_critical_units``), never configured.  How the patched
system *reads* is not configurable either: it follows from the §4.3 and §4.5 toggles (DESIGN §5), and the directory
geometry is the record format's (``pm.layout.NTAILS``) and the hash table's
own constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ArckConfig:
    """Feature flags for one ArckFS variant."""

    name: str = "arckfs"

    #: §4.1 — LibFS follows Rules (2)/(3): commit the new parent directory
    #: both before and after a directory relocation.
    rename_commit_protocol: bool = False

    #: §4.1 — kernel keeps a parent pointer in the shadow inode and the
    #: verifier distinguishes "renamed away" from "deleted".
    shadow_parent_pointer: bool = False

    #: §4.2 — the memory fence before flushing the commit-marker line.
    fence_before_marker: bool = False

    #: §4.3 — the releasing thread acquires all relevant locks, the aux
    #: state and locks are retained after release, and read operations use
    #: cached inode state instead of the PM mapping.  A retained image
    #: being safe to read is also what lets file reads go optimistic and
    #: read attaches borrow a published mapping instead of acquiring.
    locked_release: bool = False

    #: §4.4 — the bucket-lock critical section extends over the core-state
    #: (PM) update, keeping aux and core states consistent.
    extended_bucket_lock: bool = False

    #: §4.5 — directory hash-bucket readers run under RCU and removed
    #: entries are freed only after a grace period.
    rcu_buckets: bool = False

    #: §4.6 case (1) — cross-directory renames of directories serialize on
    #: a kernel-global lease (the s_vfs_rename_mutex analogue).
    global_rename_lock: bool = False

    #: §4.6 case (2) — the LibFS refuses to rename a directory into one of
    #: its own descendants.
    descendant_check: bool = False

    def with_patch(self, **flags: bool) -> "ArckConfig":
        """A copy with some patches toggled (for single-bug tests)."""
        return replace(self, **flags)


#: The SOSP'23 artifact: all six bugs present.
ARCKFS = ArckConfig(name="arckfs")

#: The paper's enhanced system: all six patches applied.
ARCKFS_PLUS = ArckConfig(
    name="arckfs+",
    rename_commit_protocol=True,
    shadow_parent_pointer=True,
    fence_before_marker=True,
    locked_release=True,
    extended_bucket_lock=True,
    rcu_buckets=True,
    global_rename_lock=True,
    descendant_check=True,
)
