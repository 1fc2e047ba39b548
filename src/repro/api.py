"""The documented entry point: volumes and sessions.

Every earlier layer is constructible by hand (``PMDevice`` → ``mkfs`` →
``KernelController`` → ``LibFS``), and all of those constructors keep
working — but hand-wiring the stack in every caller duplicated the same
boilerplate through the CLI, the workloads, the observability driver and
the examples, and each copy got the teardown subtly differently.  This
module is the one blessed wiring:

    from repro.api import Volume

    vol = Volume.create(64 * 1024 * 1024)
    with vol.session("editor") as fs:
        fs.write_file("/notes.txt", b"hello")
    report = vol.fsck()          # clean — the session drained on exit
    image = vol.device.durable_image()

    vol2 = Volume.mount(image)   # crash-consistent remount
    print(vol2.recovery.summary())   # mount's check, in fsck's classes

A :class:`Volume` owns the device and the kernel controller; a
:class:`Session` wraps one registered LibFS application and forwards its
whole surface (``open``/``pwrite``/``mkdir``/...).  Both are context
managers: leaving a session closes descriptors, releases ownership
(parents first), quiesces RCU and drains the allocator pools; closing a
volume shuts down its live sessions.  Every release verifies, so a closed
volume is always fully verified.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from repro import obs
from repro.core.config import ARCKFS_PLUS, ArckConfig
from repro.errors import InvalidArgument
from repro.kernel.controller import KernelController
from repro.kernel.policy import ResolutionPolicy
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice

if TYPE_CHECKING:
    from repro.fsck.findings import FsckReport


@dataclass(frozen=True)
class VolumeConfig:
    """Everything that shapes a volume, in one typed value.

    The one way to configure :meth:`Volume.create` and
    :meth:`Volume.mount`:

        vc = VolumeConfig(crash_tracking=True, inode_count=256)
        vol = Volume.create(8 << 20, vc)

    The Table-1 toggles live on the :class:`ArckConfig` the LibFS, kernel
    and verifier read:
    ``VolumeConfig(config=ARCKFS_PLUS.with_patch(rcu_buckets=False))``.
    """

    #: The kernel/LibFS feature configuration (the Table-1 toggles).
    config: ArckConfig = ARCKFS_PLUS
    #: Corruption-resolution policy; None = the controller's default.
    policy: Optional[ResolutionPolicy] = None
    #: Shadow inode table size (create only; mount reads the superblock).
    inode_count: int = 1024
    #: Enable the device's crash-state enumeration (shadows every store).
    crash_tracking: bool = False
    #: Member devices; >1 creates a striped volume (create only).
    devices: int = 1
    #: Pages per stripe unit on a multi-device volume (create only).
    stripe_pages: int = 1
    #: Metrics label for the volume (auto ``vol<N>`` when omitted).
    name: Optional[str] = None


def _volume_config(config: Optional[VolumeConfig]) -> VolumeConfig:
    """``config`` or the defaults; anything but a ``VolumeConfig`` (a bare
    ``ArckConfig``, say) is a ``TypeError`` rather than a silent fallback."""
    if config is None:
        return VolumeConfig()
    if not isinstance(config, VolumeConfig):
        raise TypeError(
            f"config must be a VolumeConfig, not {type(config).__name__}")
    return config


class Session:
    """One application's handle on a volume.

    Wraps a registered :class:`~repro.libfs.libfs.LibFS` and forwards its
    entire surface, so ``session.open(...)`` / ``session.pwrite(...)``
    work directly; the underlying instance stays reachable as ``.fs`` for
    code that wants the concrete type.  As a context manager, exit runs
    :meth:`shutdown`: close all descriptors, release every owned inode
    (parents before children), quiesce RCU and drain the allocator pools.
    """

    def __init__(self, volume: "Volume", fs: LibFS):
        self.volume = volume
        self.fs = fs
        self._open = True
        self._close_lock = threading.Lock()
        self._txm = None
        #: Dimensional identity threaded into every forwarded call while
        #: observability is on: metrics recorded under a session slice per
        #: tenant (``libfs.syscall.<op>.ns{app_id=...,volume=...}``).
        self.labels = {"app_id": fs.app_id, "volume": volume.name}

    def __getattr__(self, name: str):
        # Only consulted for names not found on the Session itself: the
        # whole LibFS surface forwards (open, pwrite, mkdir, stats, ...).
        # A public verb is bound once, into the instance dict, so later
        # calls skip this lookup; whether a call carries the labels is
        # decided when it is made.  ``stats`` (folded afresh on each read)
        # and private names are looked up on every access.
        attr = getattr(self.__dict__["fs"], name)
        if name.startswith("_") or not callable(attr):
            return attr
        labels = self.__dict__["labels"]

        @functools.wraps(attr)
        def forward(*args, **kwargs):
            if obs.enabled:
                with obs.scoped_context(**labels):
                    return attr(*args, **kwargs)
            return attr(*args, **kwargs)

        self.__dict__[name] = forward
        return forward

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return f"<Session {self.fs.app_id!r} ({state})>"

    @property
    def closed(self) -> bool:
        return not self._open

    def close(self, fd: Optional[int] = None) -> None:
        """Close a descriptor — or, with no argument, the whole session.

        ``session.close(fd)`` keeps forwarding to the underlying
        :meth:`LibFS.close`, as it always has.  ``session.close()`` is the
        lifecycle verb: it runs :meth:`shutdown`, and like it is safe to
        call from several places at once — a server evicting an idle
        session while drain (or the owning connection's teardown) closes it
        too must never raise on the second call.
        """
        if fd is not None:
            if obs.enabled:
                with obs.scoped_context(**self.labels):
                    self.fs.close(fd)
            else:
                self.fs.close(fd)
            return
        self.shutdown()

    def transaction(self):
        """Begin a multi-file transaction; the sanctioned entry point.

        Returns a :class:`repro.tx.Tx` handle usable either as a context
        manager (exit commits, an exception aborts) or explicitly via
        ``tx.commit()`` / ``tx.abort()``:

            with session.transaction() as tx:
                tx.mkdir("/batch")
                tx.create("/batch/a")
                tx.pwrite("/batch/a", b"payload", 0)

        Operations buffer in the handle and validate against a staged view
        of the namespace; commit writes a redo log into reserved PM pages,
        seals it with a single 8-byte atomic store (the commit point), then
        applies and checkpoints.  A crash anywhere leaves the volume
        showing *all* of the transaction (sealed → replayed at next mount)
        or *none* of it (unsealed → discarded).  Constructing
        :class:`~repro.tx.manager.TxManager` anywhere else is banned by
        ruff TID251 — this facade is the wiring layer.
        """
        if self._txm is None:
            from repro.tx.manager import TxManager

            self._txm = TxManager(self.fs)
        if obs.enabled:
            with obs.scoped_context(**self.labels):
                return self._txm.begin()
        return self._txm.begin()

    def shutdown(self) -> None:
        """Tear the application down; idempotent and race-safe.

        The first caller wins and runs the real teardown; every concurrent
        or later call returns immediately.  This is the server-safe
        lifecycle hook: eviction, drain and connection teardown may all
        reach for the same session without coordinating.
        """
        with self._close_lock:
            if not self._open:
                return
            self._open = False
        try:
            if obs.enabled:
                with obs.scoped_context(**self.labels):
                    self.fs.shutdown()
            else:
                self.fs.shutdown()
        finally:
            self.volume._detach(self)


class Volume:
    """One PM device plus its trusted kernel controller.

    Construct through :meth:`create` (mkfs + mount on a fresh device) or
    :meth:`mount` (recover an existing device or raw image).  Sessions —
    per-application LibFS instances — come from :meth:`session`.
    """

    #: Fallback names for anonymous volumes (vol0, vol1, ...), process-wide.
    _names = itertools.count()

    def __init__(self, device: PMDevice, kernel: KernelController,
                 name: Optional[str] = None):
        self.device = device
        self.kernel = kernel
        self.name = name or f"vol{next(Volume._names)}"
        self._sessions: List[Session] = []
        self._sessions_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        size: int = 64 * 1024 * 1024,
        config: Optional[VolumeConfig] = None,
        *,
        device: Optional[PMDevice] = None,
    ) -> "Volume":
        """mkfs + mount a fresh volume of ``size`` bytes.

        ``config.crash_tracking`` enables the device's crash-state
        enumeration (needed by the §4.2 bug demos and the transaction
        crash tests, off by default because it shadows every store).
        ``config.devices > 1`` stripes the volume across that many members
        of one :class:`PMDevice` (``stripe_pages`` per unit).  ``device``
        formats a caller-built device instead.
        """
        opts = _volume_config(config)
        if device is None:
            device = PMDevice(size, devices=opts.devices,
                              crash_tracking=opts.crash_tracking)
        kernel = KernelController.fresh(
            device, inode_count=opts.inode_count, config=opts.config,
            policy=opts.policy, stripe_pages=opts.stripe_pages)
        return cls(device, kernel, name=opts.name)

    @classmethod
    def mount(
        cls,
        source: Union[PMDevice, bytes, bytearray, memoryview],
        config: Optional[VolumeConfig] = None,
    ) -> "Volume":
        """Mount an existing device, or a raw image of one: any bytes-like
        object, copied once into the booted device.  Anything else is
        :class:`~repro.errors.InvalidArgument`.

        The create-only ``config`` fields (``inode_count``, ``devices``,
        ``stripe_pages``) have no mount-side meaning — the superblock is
        authoritative.  Runs full crash recovery: fsck's check, then
        mount's repairs (a pending transaction's replay among them), whose
        report is :attr:`recovery`.
        """
        opts = _volume_config(config)
        if isinstance(source, PMDevice):
            device = source
        else:
            try:
                image = memoryview(source).cast("B")
            except TypeError:  # not a buffer, or not a contiguous one
                raise InvalidArgument(
                    f"cannot mount a {type(source).__name__}: not a "
                    f"PMDevice or a bytes-like image") from None
            # The image's superblock names the member count.
            device = PMDevice.from_image(
                image, crash_tracking=opts.crash_tracking)
        kernel = KernelController.mount(
            device, config=opts.config, policy=opts.policy)
        return cls(device, kernel, name=opts.name)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def session(
        self,
        app_id: str,
        *,
        uid: int = 1000,
        group: Optional[str] = None,
    ) -> Session:
        """Register application ``app_id`` and return its :class:`Session`.

        ``group`` joins the app to a §5.4 trust group.  The LibFS runs
        under the volume's flags; one built directly (``LibFS(kernel, ...,
        config=...)``) may run under others.
        """
        fs = LibFS(self.kernel, app_id, uid=uid, group=group)
        sess = Session(self, fs)
        with self._sessions_lock:
            self._sessions.append(sess)
        return sess

    def _detach(self, sess: Session) -> None:
        """Forget a closed session (so a long-running server that churns
        through thousands of sessions does not grow the volume's list
        without bound).  Called from :meth:`Session.shutdown`."""
        with self._sessions_lock:
            try:
                self._sessions.remove(sess)
            except ValueError:
                pass

    @property
    def live_sessions(self) -> List[Session]:
        """The sessions still open on this volume (a copy)."""
        with self._sessions_lock:
            return list(self._sessions)

    # ------------------------------------------------------------------ #
    # Lifecycle / diagnostics
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ArckConfig:
        return self.kernel.config

    @property
    def recovery(self) -> Optional[FsckReport]:
        """Mount's check, in fsck's classes, with ``repairs`` counting what
        mount repaired (``repro.fsck.repair.MOUNT_CLASSES``); what it left
        is :meth:`fsck`'s; a bitmap count is of its re-check after the
        reclaims and trims (``MountRepairer.plan``).  None only for a
        kernel built by hand."""
        return self.kernel.last_recovery

    def fsck(self, *, repair: bool = False):
        """Whole-volume check of the underlying device (``repro.fsck``)."""
        return self.kernel.fsck(repair=repair)

    def quiesce(self) -> None:
        """Drain the allocator's page pools (nothing else is deferred)."""
        self.kernel.alloc.drain_pools()

    def close(self) -> None:
        """Shut down every live session, then quiesce; idempotent."""
        for sess in reversed(self.live_sessions):
            sess.shutdown()
        self.quiesce()

    def __enter__(self) -> "Volume":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<Volume {self.device.size >> 20} MiB, "
                f"config={self.kernel.config.name!r}, "
                f"{len(self._sessions)} session(s)>")
