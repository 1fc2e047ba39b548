"""The extent-batched data path: correctness and persist-cost.

``pwrite`` coalesces stores into one non-temporal stream per contiguous
page run and skips the durable pre-zero of pages it fully overwrites.
These tests pin the file contents against a ``bytearray`` model and the
>= 4x persist-call reduction over the seed per-page path, whose cost is
``repro.experiments.SEED_PWRITE_1MIB``.
"""

import pytest

from repro.core.config import ARCKFS_PLUS
from repro.experiments import SEED_PWRITE_1MIB
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.crash import CrashSim
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE


def build(config, size=8 * 1024 * 1024):
    device = PMDevice(size, crash_tracking=False)
    kernel = KernelController.fresh(device, inode_count=128, config=config)
    return device, LibFS(kernel, "extent-io", uid=0, config=config)


@pytest.fixture(params=[ARCKFS_PLUS], ids=["extent"])
def anyfs(request):
    return build(request.param)[1]


MiB = 1 << 20


class TestCorrectness:
    def test_one_mib_roundtrip(self, anyfs):
        payload = bytes(range(256)) * (MiB // 256)
        fd = anyfs.creat("/big")
        assert anyfs.pwrite(fd, payload, 0) == MiB
        assert anyfs.pread(fd, MiB, 0) == payload

    def test_hole_reads_zeros(self, anyfs):
        fd = anyfs.creat("/holey")
        off = 10 * PAGE_SIZE + 123
        anyfs.pwrite(fd, b"tail", off)
        assert anyfs.pread(fd, off, 0) == b"\0" * off
        assert anyfs.pread(fd, 4, off) == b"tail"

    def test_unaligned_page_straddle(self, anyfs):
        fd = anyfs.creat("/straddle")
        payload = b"\xc3" * (3 * PAGE_SIZE)
        anyfs.pwrite(fd, payload, 1000)
        assert anyfs.pread(fd, len(payload), 1000) == payload
        assert anyfs.pread(fd, 1000, 0) == b"\0" * 1000

    def test_partial_overwrite_preserves_rest(self, anyfs):
        fd = anyfs.creat("/part")
        anyfs.pwrite(fd, b"a" * (2 * PAGE_SIZE), 0)
        anyfs.pwrite(fd, b"b" * 100, PAGE_SIZE - 50)
        expect = (b"a" * (PAGE_SIZE - 50) + b"b" * 100 +
                  b"a" * (PAGE_SIZE - 50))
        assert anyfs.pread(fd, 2 * PAGE_SIZE, 0) == expect

    def test_extent_and_legacy_media_agree(self):
        """The file is byte-identical to a ``bytearray`` replaying the
        same ``(data, offset)`` list (holes read as zeros)."""
        ops = [
            (b"x" * (64 * 1024), 0),
            (b"y" * 5000, 3 * PAGE_SIZE + 17),
            (b"z" * PAGE_SIZE, 100 * PAGE_SIZE),
            (b"w" * 10, 5),
        ]
        model = bytearray()
        _device, fs = build(ARCKFS_PLUS)
        fd = fs.creat("/f")
        for data, off in ops:
            fs.pwrite(fd, data, off)
            if len(model) < off + len(data):
                model.extend(b"\0" * (off + len(data) - len(model)))
            model[off : off + len(data)] = data
        size = fs.stat("/f").size
        assert size == len(model)
        assert fs.pread(fd, size, 0) == bytes(model)


class TestPersistCost:
    def test_persist_calls_drop_4x_per_mib(self):
        device, fs = build(ARCKFS_PLUS)
        fd = fs.creat("/big")
        before = device.stats.fences
        fs.pwrite(fd, b"\x5a" * MiB, 0)
        fences = device.stats.fences - before
        assert SEED_PWRITE_1MIB["persist_calls"] / fences >= 4.0, fences
        # 256 physically contiguous fresh pages coalesce into one extent.
        assert fs.stats.write_extents == 1

    def test_fresh_full_pages_skip_prezero(self):
        """A fully-overwritten fresh page costs no durable pre-zero: the
        whole 1 MiB write needs only a handful of fences."""
        device, fs = build(ARCKFS_PLUS)
        fd = fs.creat("/big")
        before = device.stats.fences
        fs.pwrite(fd, b"q" * MiB, 0)
        assert device.stats.fences - before <= 16


def build_striped(devices=2, stripe_pages=2, size=8 * 1024 * 1024,
                  crash_tracking=False):
    device = PMDevice(size, devices=devices, crash_tracking=crash_tracking)
    kernel = KernelController.fresh(device, inode_count=128,
                                    config=ARCKFS_PLUS,
                                    stripe_pages=stripe_pages)
    return device, LibFS(kernel, "extent-io", uid=0, config=ARCKFS_PLUS)


class TestStriped:
    """The extent path over a striped 2-device array."""

    def test_roundtrip_and_fanout(self):
        device, fs = build_striped()
        payload = bytes(range(256)) * (MiB // 256)
        fd = fs.creat("/big")
        assert fs.pwrite(fd, payload, 0) == MiB
        assert fs.pread(fd, MiB, 0) == payload
        # Striping is real: both members stored a comparable share.
        stored = [m.stats.bytes_stored for m in device.members]
        assert all(b > MiB // 4 for b in stored), stored

    def test_contents_agree_with_flat_volume(self):
        """Same op stream, identical file contents, striped or flat."""
        ops = [
            (b"x" * (64 * 1024), 0),
            (b"y" * 5000, 3 * PAGE_SIZE + 17),
            (b"z" * PAGE_SIZE, 100 * PAGE_SIZE),
            (b"w" * 10, 5),
        ]
        images = []
        for maker in (lambda: build(ARCKFS_PLUS),
                      lambda: build_striped(devices=2, stripe_pages=4)):
            _device, fs = maker()
            fd = fs.creat("/f")
            for data, off in ops:
                fs.pwrite(fd, data, off)
            size = fs.stat("/f").size
            images.append((size, fs.pread(fd, size, 0)))
        assert images[0] == images[1]

    def test_unaligned_straddle_across_stripe_units(self):
        _device, fs = build_striped(devices=2, stripe_pages=1)
        # stripe_pages=1 alternates devices every page, so this 3-page
        # write crosses a device boundary at every page edge.
        fd = fs.creat("/straddle")
        payload = b"\xc3" * (3 * PAGE_SIZE)
        fs.pwrite(fd, payload, 1000)
        assert fs.pread(fd, len(payload), 1000) == payload


class TestStripedCrash:
    """A torn multi-device extent write keeps the leak-only crash story."""

    def _torn_write(self):
        device, fs = build_striped(devices=2, stripe_pages=2,
                                   crash_tracking=True)
        fd = fs.creat("/doc")
        device.drain()  # narrow enumeration to the extent write itself
        # 4 pages at stripe 2 over 2 devices: the extent spans both
        # members, so the torn write has in-flight lines on each.
        fs.pwrite(fd, b"\x7e" * (4 * PAGE_SIZE), 0)
        return device

    def test_torn_extent_write_is_leak_only(self):
        from repro.fsck import TORN_CLASSES
        from repro.fsck.findings import (
            F_PAGE_DOUBLE_USE,
            F_PAGE_UNALLOCATED,
            F_STRIPE_LABEL,
            F_STRIPE_ORPHAN,
        )

        device = self._torn_write()
        sim = CrashSim(device)
        bad = TORN_CLASSES | {F_PAGE_UNALLOCATED, F_PAGE_DOUBLE_USE,
                              F_STRIPE_ORPHAN, F_STRIPE_LABEL}
        assert sim.find_fsck_violation(bad, sample=64) is None

    def test_torn_extent_write_is_repairable(self):
        device = self._torn_write()
        sim = CrashSim(device)
        assert sim.find_fsck_violation(repair=True, sample=16) is None
