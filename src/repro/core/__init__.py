"""Core-state machinery shared by the LibFS and the trusted kernel side.

In Trio the *core state* — superblock, inode table and file pages in NVM —
is the single source of truth: LibFSes build their DRAM auxiliary state from
it, and the integrity verifier inspects nothing else.  This package holds
the code that reads and writes that state:

* :mod:`repro.core.corestate` — parsing/formatting of inode records,
  directory logs (multi-tailed), file page indexes, and the **atomic
  commit-marker protocol** for dentry creation whose missing fence is the
  paper's §4.2 bug (the fence is a parameter here; the config decides).
* :mod:`repro.core.invariants` — the per-inode structural rules the
  verifier, fsck and mount all judge an inode's on-media shape by.
* :mod:`repro.core.mkfs` — format a fresh device.
* :mod:`repro.core.config` — the six bug/patch toggles and the ARCKFS /
  ARCKFS_PLUS presets.
"""

from repro.core.config import ARCKFS, ARCKFS_PLUS, ArckConfig
from repro.core.corestate import CoreState, DentryLoc, TailCursor
from repro.core.mkfs import ROOT_INO, load_geometry, mkfs

__all__ = [
    "ARCKFS",
    "ARCKFS_PLUS",
    "ArckConfig",
    "CoreState",
    "DentryLoc",
    "TailCursor",
    "ROOT_INO",
    "load_geometry",
    "mkfs",
]
