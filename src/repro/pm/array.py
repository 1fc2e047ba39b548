"""A striped multi-device PM array behind the ``PMDevice`` interface.

The paper's comparison set is led at scale by OdinFS, which stripes data
across NUMA-local PM devices and delegates access to per-socket worker
threads.  :class:`PMArray` gives the reproduction that hardware shape: it
composes N :class:`~repro.pm.device.PMDevice` members into one flat
logical address space (member ``d`` owns bytes
``[d*dev_size, (d+1)*dev_size)``), so every existing consumer — mkfs,
the allocator, fsck, crash enumeration, the transaction log — keeps
working through geometry-derived addresses, while

* :meth:`ntstore_scatter` / :meth:`load_gather` split extent batches
  across the members (the time OdinFS-style per-device delegation threads
  would save is modeled only, by
  :meth:`repro.perf.costmodel.CostModel.delegate_io_time`);
* ``sfence`` drains only the members actually dirtied since the last
  fence, so per-member persist-call counters show the fan-out and a
  single-member array stays counter-identical to a flat device;
* the crash API re-exposes member cache lines under flat line numbers
  (``flat = member * lines_per_member + local``), so
  :class:`~repro.pm.crash.CrashSim` enumerates torn multi-device writes
  exactly as it does single-device ones.

Where data lands is decided by :class:`~repro.pm.layout.Geometry`
(``devices``/``stripe_pages``): stripe units of pages round-robin across
members, and each member's first ``data_off`` bytes are reserved — real
metadata on member 0, an :class:`~repro.pm.layout.ArrayLabel` on the
rest.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import PersistOrderError, SuperblockCorrupt
from repro.pm.device import (CACHE_LINE, PMDevice, PMStats, draw_crash_images,
                             iter_crash_images)
from repro.pm.layout import PAGE_SIZE, Superblock


class PMArray:
    """N PM devices striped behind one flat byte-addressable interface.

    Parameters
    ----------
    size:
        Total capacity in bytes; each member gets ``size // devices``
        rounded up to a cache line (so ``len(array)`` may round up).
    devices:
        Member count.  ``devices=1`` is a degenerate array that behaves
        byte- and counter-identically to a flat :class:`PMDevice`.
    stripe_pages:
        Pages per stripe unit — recorded here for mkfs to pick up (the
        array itself is striping-agnostic; placement lives in
        :class:`~repro.pm.layout.Geometry`).
    """

    def __init__(self, size: int, *, devices: int = 2, stripe_pages: int = 1,
                 crash_tracking: bool = True):
        if devices < 1:
            raise ValueError("an array needs at least one member device")
        if size < devices:
            raise ValueError("array smaller than its member count")
        dev_size = (size + devices - 1) // devices
        dev_size = (dev_size + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE
        self.members: List[PMDevice] = [
            PMDevice(dev_size, crash_tracking=crash_tracking, device_id=d)
            for d in range(devices)
        ]
        self.dev_size = self.members[0].size
        self.size = self.dev_size * devices
        self.stripe_pages = max(1, stripe_pages)
        self.crash_tracking = crash_tracking
        #: members touched by a store/clwb since their last fence.
        self._dirty = [False] * devices

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def device_count(self) -> int:
        return len(self.members)

    @property
    def stats(self) -> PMStats:
        """Aggregated counters across members (a fresh snapshot each
        access, so ``stats.snapshot()``/``diff`` work as on a device)."""
        total = PMStats()
        for m in self.members:
            for f in dataclass_fields(PMStats):
                setattr(total, f.name,
                        getattr(total, f.name) + getattr(m.stats, f.name))
        return total

    @property
    def device_stats(self) -> List[PMStats]:
        """Per-member counter snapshots (index == member index)."""
        return [m.stats.snapshot() for m in self.members]

    @property
    def media(self) -> bytes:
        """The concatenated media view (mirrors ``PMDevice.media`` reads)."""
        return b"".join(bytes(m.media) for m in self.members)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------ #
    # Address routing
    # ------------------------------------------------------------------ #

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PersistOrderError(
                f"access [{addr}, {addr + size}) outside array of "
                f"{self.size} bytes")

    def _split(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        """``(member, local_addr, nbytes)`` pieces covering the flat range."""
        self._check_range(addr, size)
        if addr == self.size:  # zero bytes at the very end: the last member's
            return [(len(self.members) - 1, self.dev_size, 0)]
        pieces = []
        while True:
            d, local = divmod(addr, self.dev_size)
            take = min(size, self.dev_size - local)
            pieces.append((d, local, take))
            size -= take
            if size <= 0:
                return pieces
            addr += take

    # ------------------------------------------------------------------ #
    # PMDevice surface
    # ------------------------------------------------------------------ #

    def load(self, addr: int, size: int) -> bytes:
        pieces = self._split(addr, size)
        if len(pieces) == 1:
            d, local, n = pieces[0]
            return self.members[d].load(local, n)
        return b"".join(self.members[d].load(local, n)
                        for d, local, n in pieces)

    def store(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        pos = 0
        for d, local, n in self._split(addr, len(data)):
            self._dirty[d] = True
            self.members[d].store(local, data[pos:pos + n])
            pos += n

    def atomic_store(self, addr: int, data: bytes) -> None:
        # Naturally-aligned <= 16 B stores never cross a cache line, and
        # member boundaries are line-aligned — one member always covers it.
        n = len(data)
        if n not in (1, 2, 4, 8, 16):
            raise PersistOrderError(f"atomic store of {n} bytes is not supported")
        d, local = divmod(addr, self.dev_size)
        self._dirty[d] = True
        self.members[d].atomic_store(local, data)

    def clwb(self, addr: int, size: int = 1) -> None:
        for d, local, n in self._split(addr, max(size, 1)):
            self._dirty[d] = True
            self.members[d].clwb(local, n)

    clflushopt = clwb

    def sfence(self) -> None:
        """Fence every member dirtied since its last fence.

        The per-member fence counters are the functional evidence of the
        delegation fan-out; fencing only dirty members also keeps a
        1-member array's counts identical to a flat device (an idle fence
        still charges member 0, as a device charges itself).
        """
        fenced = [d for d, dirty in enumerate(self._dirty) if dirty]
        if not fenced:
            fenced = [0]
        for d in fenced:
            self._dirty[d] = False
            self.members[d].sfence()

    def ntstore(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        pos = 0
        for d, local, n in self._split(addr, len(data)):
            self._dirty[d] = True
            self.members[d].ntstore(local, data[pos:pos + n])
            pos += n

    def persist(self, addr: int, size: int) -> None:
        self.clwb(addr, size)
        self.sfence()

    def drain(self) -> None:
        for d, m in enumerate(self.members):
            self._dirty[d] = False
            m.drain()

    # ------------------------------------------------------------------ #
    # Delegated batch I/O (the extent-batched data path's fan-out)
    # ------------------------------------------------------------------ #

    def ntstore_scatter(self, ops: List[Tuple[int, bytes]]) -> None:
        """Non-temporal-store a batch of ``(addr, data)`` extents, each
        member taking its own share.

        Semantically identical to looping ``ntstore`` (durability still
        requires the caller's following ``sfence``), plus the per-member
        ``pm.delegated_*`` counters.
        """
        for addr, data in ops:
            data = bytes(data)
            pos = 0
            for d, local, n in self._split(addr, len(data)):
                self._dirty[d] = True
                self.members[d].ntstore(local, data[pos:pos + n])
                self._count_delegated(d, n)
                pos += n

    def load_gather(self, ops: List[Tuple[int, int]]) -> List[bytes]:
        """Read a batch of ``(addr, nbytes)`` extents from the members;
        returns the chunks in submission order."""
        results: List[bytes] = []
        for addr, nbytes in ops:
            parts = []
            for d, local, n in self._split(addr, nbytes):
                self._count_delegated(d, n)
                parts.append(self.members[d].load(local, n))
            results.append(parts[0] if len(parts) == 1 else b"".join(parts))
        return results

    @staticmethod
    def _count_delegated(d: int, n: int) -> None:
        if obs.enabled:
            obs.count("pm.delegated_ops", device=d)
            obs.count("pm.delegated_bytes", n, device=d)

    # ------------------------------------------------------------------ #
    # Crash-state exploration (flat line numbering over all members)
    # ------------------------------------------------------------------ #

    @property
    def _lines_per_member(self) -> int:
        return self.dev_size // CACHE_LINE

    def dirty_lines(self) -> List[int]:
        out = []
        for d, m in enumerate(self.members):
            base = d * self._lines_per_member
            out.extend(base + line for line in m.dirty_lines())
        return out

    def line_choices(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for d, m in enumerate(self.members):
            base = d * self._lines_per_member
            for line, n in m.line_choices().items():
                out[base + line] = n
        return out

    def durable_image(self) -> bytes:
        return b"".join(m.durable_image() for m in self.members)

    def volatile_image(self) -> bytes:
        return b"".join(m.volatile_image() for m in self.members)

    def crash_image(self, choices: Dict[int, int]) -> bytes:
        per_member: List[Dict[int, int]] = [{} for _ in self.members]
        lpm = self._lines_per_member
        for flat, idx in choices.items():
            per_member[flat // lpm][flat % lpm] = idx
        return b"".join(m.crash_image(per_member[d])
                        for d, m in enumerate(self.members))

    enumerate_crash_images = iter_crash_images
    sample_crash_images = draw_crash_images

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def from_image(cls, image: bytes, *, crash_tracking: bool = True,
                   devices: Optional[int] = None,
                   stripe_pages: Optional[int] = None) -> "PMArray":
        """Boot an array from a flat crash (or durable) image.

        Member count and stripe width default to what the image's
        superblock records, so ``PMArray.from_image(arr.durable_image())``
        reboots into the same shape without side-channel state.
        """
        if devices is None or stripe_pages is None:
            sb = _peek_superblock(image)
            if sb is not None:
                devices = devices or max(1, sb.devices)
                stripe_pages = stripe_pages or max(1, sb.stripe_pages)
        devices = devices or 1
        stripe_pages = stripe_pages or 1
        if len(image) % devices or len(image) // devices < PAGE_SIZE:
            raise SuperblockCorrupt(
                f"{len(image)}-byte image does not split into {devices} "
                f"equal members of at least one page")
        arr = cls(len(image), devices=devices, stripe_pages=stripe_pages,
                  crash_tracking=crash_tracking)
        if arr.size != len(image):
            raise SuperblockCorrupt(
                "image size is not cache-line aligned per member")
        view = memoryview(image)
        for d, m in enumerate(arr.members):
            m.load_image(view[d * arr.dev_size:(d + 1) * arr.dev_size])
        return arr


def _peek_superblock(image: bytes) -> Optional[Superblock]:
    if len(image) < Superblock.SIZE:
        return None
    sb = Superblock.unpack(image[:Superblock.SIZE])
    return sb if sb.valid else None


def reboot_device(image: bytes, *, crash_tracking: bool = True):
    """'Reboot' a flat image into the device shape its superblock names.

    A valid superblock recording ``devices > 1`` boots a :class:`PMArray`
    of that shape; anything else boots a flat :class:`PMDevice`.  This is
    the one reboot path crash enumeration, ``Volume.mount(bytes)`` and
    ``repro fsck --image`` share, so the multi-device crash story needs no
    caller-side plumbing.
    """
    sb = _peek_superblock(image)
    if sb is not None and sb.devices > 1:
        return PMArray.from_image(image, crash_tracking=crash_tracking)
    return PMDevice.from_image(image, crash_tracking=crash_tracking)
