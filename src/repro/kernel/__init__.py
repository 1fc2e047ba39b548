"""The Trio trusted components: kernel controller, shadow table, verifier.

This is the trusted computing base of the architecture (paper Figure 1):

* :class:`~repro.kernel.controller.KernelController` — grants and revokes
  inode ownership, maps/unmaps core state, allocates inode numbers, holds
  the global rename lease and the trust-group registry, and drives
  verification + corruption resolution on every ownership transfer.
* :class:`~repro.kernel.shadow.ShadowInode` — the kernel's verified view of
  each inode ("the ground truth for comparison with the inodes used by
  LibFSes", §2.2).  ArckFS+ extends it with a parent pointer (§4.1).
* :class:`~repro.kernel.verifier.Verifier` — checks an inode's core state
  against the shadow table and the metadata invariants (notably I3: the
  hierarchy forms a connected tree).
* :mod:`~repro.kernel.policy` — what to do when verification fails: roll the
  inode back to its last verified state, or mark it inaccessible (§2.1 ⑧).
"""

from repro.kernel.controller import KernelController
from repro.kernel.shadow import Acquisition, PendingInode, ShadowInode, Snapshot
from repro.kernel.verifier import Verifier, VerifyFailure
from repro.kernel.policy import MarkInaccessiblePolicy, ResolutionPolicy, RollbackPolicy

__all__ = [
    "KernelController",
    "ShadowInode",
    "PendingInode",
    "Acquisition",
    "Snapshot",
    "Verifier",
    "VerifyFailure",
    "ResolutionPolicy",
    "RollbackPolicy",
    "MarkInaccessiblePolicy",
]
