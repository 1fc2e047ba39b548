"""``repro.fsck`` — a whole-volume checker and repairer.

The kernel verifier (:mod:`repro.kernel.verifier`) checks one inode at the
moment its ownership is transferred; this package is its whole-volume
complement, in the shape pFSCK gave the classic fsck pipeline:

1. **scan** — walk the superblock, every inode record, every
   directory-log tail and every file page index
   (:func:`repro.core.invariants.scan`);
2. **cross-check** — per-inode validation (by the rules of
   :mod:`repro.core.invariants` the verifier and mount share) plus a
   graph merge reconstructing reachability from the root by the namespace
   rule mount applies (:func:`~repro.core.invariants.resolve`): orphan inodes,
   dangling or torn dentries, duplicate links, directory cycles, page
   double-use and bitmap drift (:mod:`repro.fsck.check`);
3. **repair** — ``--repair`` applies truncate-to-consistent-prefix to
   logs and chains and quarantines unreachable inodes under
   ``/lost+found``, then re-checks until the volume proves clean
   (:mod:`repro.fsck.repair`).

Mount checks once too (:func:`~repro.fsck.runner.check_volume`) and
repairs :data:`~repro.fsck.repair.MOUNT_CLASSES` with the same engine.

Each phase runs once, on the calling thread, and the report only counts.
pFSCK's parallel phases are a claim of the cost model:
``CostModel.fsck_phase_time`` prices the scan and cross-check at any
worker count from the per-inode work one run records (``FsckReport.work``).

Entry points:

* :func:`run_fsck` — check (and optionally repair) a device;
* :func:`fsck_checker` — fsck as a :func:`~repro.pm.crash.explore` judge:
  "every reachable crash state is fsck-clean";
* ``python -m repro fsck`` — the CLI verb (exit code 0 = clean).
"""

from repro.fsck.findings import (  # noqa: F401  (re-exported API)
    ALL_CLASSES,
    F_AUX_MISMATCH,
    F_BAD_PAGE_KIND,
    F_CHAIN_CORRUPT,
    F_DANGLING_DENTRY,
    F_DIR_CYCLE,
    F_DUPLICATE_DENTRY,
    F_NLINK_MISMATCH,
    F_ORPHAN_INODE,
    F_PAGE_DOUBLE_USE,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED,
    F_SIZE_MISMATCH,
    F_STRIPE_LABEL,
    F_STRIPE_ORPHAN,
    F_SUPERBLOCK,
    F_TORN_DENTRY,
    F_TX_TORN,
    TORN_CLASSES,
    TX_CLASSES,
    Finding,
    FsckReport,
)
from repro.fsck.auxcheck import check_libfs_aux, check_node_ref  # noqa: F401
from repro.fsck.inject import INJECTORS, inject_stripe_label  # noqa: F401
from repro.fsck.runner import MAX_PASSES, fsck_checker, run_fsck  # noqa: F401
from repro.fsck.volume import build_volume  # noqa: F401
