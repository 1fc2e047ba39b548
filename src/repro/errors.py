"""Exception hierarchy shared across the repro package.

Three families live here:

* Simulated hardware/OS faults (:class:`SimulatedSegfault`,
  :class:`SimulatedBusError`).  The paper observes real segfaults and bus
  errors caused by ArckFS's concurrency bugs; since Python cannot (usefully)
  segfault, freed or unmapped memory in our simulation is *poisoned* and any
  dereference raises one of these exceptions instead.  Tests assert that the
  buggy configuration raises them and the patched configuration does not.

* File-system errors (:class:`FSError` and its subclasses), which mirror the
  POSIX errno values a real file system would return.

* Protection-domain errors: the verifier's :class:`VerifyFailure`, the
  controller's :class:`CorruptionDetected`, the core-state walker's
  :class:`ChainCorrupt`, mount's :class:`SuperblockCorrupt`, the page
  allocator's :class:`DoubleFree` and the lease layer's
  :class:`LeaseExpired`.

Everything a caller of the public API can catch derives from
:class:`ReproError` and carries a stable ``.code`` — POSIX errno values for
the :class:`FSError` family, repo-assigned values above 200 for the
protection-domain family (they have no POSIX analogue).  The CLI maps codes
to process exit statuses through :func:`exit_code_for`; see that function
for the table.
"""

from __future__ import annotations

import errno
import sys
from typing import Optional


class ReproError(Exception):
    """Common base of every catchable error the repro package raises.

    ``code`` is a stable errno-style integer: POSIX errno for file-system
    errors, 200-range values for the protection-domain errors that have no
    POSIX equivalent.  Subclasses set the class attribute ``CODE``.

    When observability is collecting spans or profiler frames at construction
    time, the instance additionally captures ``span_path`` (the raising
    thread's open span stack, ``a;b;c``) and ``trace_id`` — so a CLI failure
    under ``--json`` pinpoints the operation that raised from the artifacts
    alone.  Both stay ``None`` in the disabled fast path; the lookup goes
    through ``sys.modules`` so constructing an error never imports obs.
    """

    CODE = 1
    span_path = None
    trace_id = None

    def __init__(self, *args: object):
        super().__init__(*args)
        obs = sys.modules.get("repro.obs")
        if obs is not None and obs.enabled:
            self.span_path = obs.current_span_path()
            self.trace_id = obs.trace_id()

    @property
    def code(self) -> int:
        return self.CODE


class SimulatedFault(Exception):
    """Base class for simulated hardware faults (would kill a real process)."""


class SimulatedSegfault(SimulatedFault):
    """Dereference of freed / poisoned memory (SIGSEGV in the paper)."""


class SimulatedBusError(SimulatedFault):
    """Dereference of an unmapped PM region (SIGBUS in the paper, cf. §4.3)."""


class PersistOrderError(Exception):
    """Misuse of the persistence primitives (e.g. flushing an unwritten line)."""


class CrashPoint(Exception):
    """Raised by a failpoint to simulate a whole-machine crash at this site."""


class VerifyFailure(ReproError):
    """The integrity verifier rejected an inode's core state (internal).

    Raised inside the kernel controller and translated into
    :class:`CorruptionDetected` after the resolution policy has run; also
    the canonical re-export of ``repro.kernel.verifier``.
    """

    CODE = 200

    def __init__(self, ino: int, reason: str, rule: Optional[str] = None):
        super().__init__(f"inode {ino}: {reason}")
        self.ino = ino
        self.reason = reason
        #: the :mod:`repro.core.invariants` rule broken (its fsck finding
        #: class); None when the core state disagrees with the shadow table.
        self.rule = rule


class CorruptionDetected(ReproError):
    """The integrity verifier rejected an inode's core state.

    Carries enough context for the kernel controller to apply a resolution
    policy (rollback or mark-inaccessible).
    """

    CODE = 201

    def __init__(self, ino: int, reason: str):
        super().__init__(f"inode {ino}: {reason}")
        self.ino = ino
        self.reason = reason


class ChainCorrupt(ReproError, ValueError):
    """An on-media page chain links to a page it cannot contain.

    Raised by :meth:`repro.core.corestate.CoreState.walk_chain`, the one
    reader of ``next_page`` links: ``bad`` is the out-of-range or revisited
    page number the chain points at, ``last_good`` the page holding that
    link (0 when the chain's head itself is bad).  A ``ValueError`` too,
    so callers that treat any unparseable core state alike keep working.
    """

    CODE = 203

    def __init__(self, bad: int, last_good: int = 0):
        super().__init__(
            f"page chain corrupt at page {bad} (last good page {last_good})")
        self.bad = bad
        self.last_good = last_good


class SuperblockCorrupt(ReproError, ValueError):
    """The superblock is missing or describes a volume its device cannot
    hold (wrong size, an inode table past the end, a member count the image
    does not split into).  Raised by :func:`repro.core.mkfs.load_geometry`
    and by the image reboot path before anything trusts the geometry; a
    ``ValueError`` too, like :class:`ChainCorrupt`."""

    CODE = 204


class DoubleFree(ReproError, ValueError):
    """A page free named a page that is not allocated, or named one page
    twice.  Raised by :meth:`repro.pm.allocator.PageAllocator.free` before
    any bit changes, so a forged double mapping cannot leave a page free
    in the bitmap while an inode still maps it.  A ``ValueError`` too,
    like :class:`ChainCorrupt`."""

    CODE = 205


class LeaseExpired(ReproError):
    """An operation was attempted under a lease that has lapsed.

    Canonical re-export of ``repro.concurrency.lease``.
    """

    CODE = 202


class FSError(ReproError, OSError):
    """Base file-system error; ``errno`` mirrors the POSIX value."""

    ERRNO = errno.EIO

    def __init__(self, msg: str = ""):
        super().__init__(self.ERRNO, msg or self.__class__.__name__)

    @property
    def code(self) -> int:
        return self.ERRNO


class NoEntry(FSError):
    ERRNO = errno.ENOENT


class Exists(FSError):
    ERRNO = errno.EEXIST


class NotADir(FSError):
    ERRNO = errno.ENOTDIR


class IsADir(FSError):
    ERRNO = errno.EISDIR


class NotEmpty(FSError):
    ERRNO = errno.ENOTEMPTY


class PermissionDenied(FSError):
    ERRNO = errno.EACCES


class NoSpace(FSError):
    ERRNO = errno.ENOSPC


class InvalidArgument(FSError):
    ERRNO = errno.EINVAL


class BadFileDescriptor(FSError):
    ERRNO = errno.EBADF


class NameTooLong(FSError):
    ERRNO = errno.ENAMETOOLONG


class CrossDevice(FSError):
    ERRNO = errno.EXDEV


class WouldLoop(FSError):
    """Renaming a directory into one of its own descendants (cf. §4.6)."""

    ERRNO = errno.ELOOP


class TryAgain(FSError):
    """Transient failure (e.g. the global rename lease is held elsewhere,
    or another app currently owns an inode on the acquire path).  EAGAIN
    semantics: marked ``retryable`` so the server's wire protocol tells
    clients to back off and re-issue rather than fail the op.

    An ownership conflict names who is in the way: ``owner`` is the app id
    holding inode ``ino`` (both ``None`` for the rename lease, which has no
    inode).  They stay on the raising side — the wire body is unchanged —
    and are what lets a coordinator recall the holder instead of making
    the caller poll."""

    ERRNO = errno.EAGAIN
    retryable = True

    def __init__(self, msg: str = "", *, owner: Optional[str] = None,
                 ino: Optional[int] = None):
        super().__init__(msg)
        self.owner = owner
        self.ino = ino


# --------------------------------------------------------------------------- #
# Server errors (repro.server)
# --------------------------------------------------------------------------- #


class ServerError(ReproError):
    """Base of the volume-server error family (``repro.server``).

    ``retryable`` is part of the wire contract: the server serializes it
    into every error frame, and a well-behaved client backs off and retries
    exactly the errors that carry ``retryable=True``.  Subclasses override
    the class attribute; instances never mutate it.
    """

    CODE = 210
    retryable = False


class Overloaded(ServerError):
    """A tenant is over its per-read bound (or the server is draining).

    The explicit backpressure signal: the op was *not* executed; retry
    after a backoff.
    """

    CODE = 211
    retryable = True


class TenantLimit(ServerError):
    """A per-tenant admission limit (e.g. max sessions) was reached."""

    CODE = 212
    retryable = True


class ProtocolError(ServerError):
    """A malformed, oversized or unroutable wire frame.  Not retryable:
    resending the same bytes cannot succeed."""

    CODE = 213


class SessionGone(ServerError):
    """The request named a session token the server no longer knows
    (evicted after its idle lease lapsed, or closed).  Retryable in the
    sense that the client should open a fresh session and re-issue."""

    CODE = 214
    retryable = True


# --------------------------------------------------------------------------- #
# Transaction errors (repro.tx)
# --------------------------------------------------------------------------- #


class TxError(ReproError):
    """Base of the transaction error family (``repro.tx``).

    Raised for misuse of a transaction handle (operating on a committed or
    aborted transaction); the subclasses carry commit-outcome semantics.
    """

    CODE = 220
    retryable = False


class TxAborted(TxError):
    """The commit failed mid-apply and the transaction was rolled back:
    the volume shows *none* of its effects (staged namespace ops undone,
    dirtied files restored from their kernel snapshots).  Retryable — the
    volume is exactly as if the transaction never ran."""

    CODE = 221
    retryable = True


class TxCommitPending(TxError):
    """The commit failed mid-apply after an irreversible op (an applied
    ``unlink``); the sealed redo log was left pending and the next mount
    replays it to completion.  The volume temporarily shows a prefix of
    the transaction.  Not retryable in-process: remount to roll forward."""

    CODE = 222


# --------------------------------------------------------------------------- #
# CLI exit-code mapping
# --------------------------------------------------------------------------- #

#: Process exit statuses for ``python -m repro`` (see :func:`exit_code_for`).
#: 0 is success; the fsck verb additionally uses 1 (repairable findings) and
#: 2 (unrepairable findings) as its domain-specific statuses, which is why
#: error classes start at 2.
EXIT_USAGE = 2          # bad arguments / unknown workload (InvalidArgument)
EXIT_FS_ERROR = 3       # any other FSError (ENOENT, EEXIST, ...)
EXIT_CORRUPTION = 4     # VerifyFailure / CorruptionDetected / ChainCorrupt
                        # / SuperblockCorrupt / DoubleFree
EXIT_LEASE = 5          # LeaseExpired
EXIT_NO_SPACE = 6       # NoSpace (ENOSPC)
EXIT_OTHER = 7          # any other ReproError (the documented fallback)
EXIT_SERVER = 8         # ServerError family (Overloaded, TenantLimit, ...)
EXIT_TX = 9             # TxError family (TxAborted, TxCommitPending, ...)

#: The exit-status table, walked in order; first match wins.  Subclassing
#: an entry inherits its status (``Overloaded`` exits like ``ServerError``)
#: unless a more specific row precedes it.
_EXIT_TABLE = (
    (InvalidArgument, EXIT_USAGE),
    (NoSpace, EXIT_NO_SPACE),
    (FSError, EXIT_FS_ERROR),
    (VerifyFailure, EXIT_CORRUPTION),
    (CorruptionDetected, EXIT_CORRUPTION),
    (ChainCorrupt, EXIT_CORRUPTION),
    (SuperblockCorrupt, EXIT_CORRUPTION),
    (DoubleFree, EXIT_CORRUPTION),
    (LeaseExpired, EXIT_LEASE),
    (ServerError, EXIT_SERVER),
    (TxError, EXIT_TX),
)


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI's process exit status.

    Every verb funnels :class:`ReproError` through this single table so the
    same failure produces the same status everywhere:

    ========================================    ====
    exception                                   exit
    ========================================    ====
    ``InvalidArgument``                         2
    ``NoSpace``                                 6
    other ``FSError``                           3
    ``VerifyFailure`` / ``CorruptionDetected``  4
    ``ChainCorrupt`` / ``SuperblockCorrupt``    4
    ``DoubleFree``                              4
    ``LeaseExpired``                            5
    ``ServerError`` family                      8
    ``TxError`` family                          9
    anything else                               7
    ========================================    ====

    The last row is the contract that keeps exit semantics stable as the
    taxonomy grows: a :class:`ReproError` subclass introduced without a
    dedicated row here exits :data:`EXIT_OTHER` (7) — a defined, documented
    status — rather than leaking an unmapped value.  New families get a row
    *and* a regression test, or they get 7.
    """
    for cls, status in _EXIT_TABLE:
        if isinstance(exc, cls):
            return status
    return EXIT_OTHER
