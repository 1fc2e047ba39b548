"""PMArray: address routing, stats aggregation, delegation, crash images.

The array's contract is "a PMDevice, but striped": every test here pins one
facet of that — flat addresses route to the right member, a 1-member array
is indistinguishable from a device, scatter/gather match inline semantics
with and without worker threads, and the flat crash-line numbering feeds
the same enumeration the single-device crash story uses.
"""

import pytest

from repro import obs
from repro.errors import PersistOrderError
from repro.pm.array import PMArray, reboot_device
from repro.pm.device import CACHE_LINE, PMDevice

SIZE = 1 << 20  # 1 MiB arrays keep crash enumeration cheap


class TestRouting:
    def test_member_sizing(self):
        arr = PMArray(SIZE, devices=4)
        assert arr.device_count == 4
        assert arr.dev_size == SIZE // 4
        assert len(arr) == SIZE
        assert all(m.size == arr.dev_size for m in arr.members)

    def test_roundtrip_across_member_boundary(self):
        arr = PMArray(SIZE, devices=4, crash_tracking=False)
        addr = arr.dev_size - 100  # straddles members 0 and 1
        payload = bytes(range(200))
        arr.store(addr, payload)
        assert arr.load(addr, 200) == payload
        # The two members each saw their share.
        assert arr.members[0].load(arr.dev_size - 100, 100) == payload[:100]
        assert arr.members[1].load(0, 100) == payload[100:]

    def test_atomic_store_never_spans_members(self):
        arr = PMArray(SIZE, devices=2, crash_tracking=False)
        # Member boundaries are cache-line aligned, so any naturally
        # aligned 8-byte store lands in exactly one member.
        assert arr.dev_size % CACHE_LINE == 0
        arr.atomic_store(arr.dev_size, b"\x11" * 8)
        assert arr.members[1].load(0, 8) == b"\x11" * 8

    def test_out_of_range_raises(self):
        arr = PMArray(SIZE, devices=2, crash_tracking=False)
        with pytest.raises(PersistOrderError):
            arr.load(SIZE - 4, 8)

    def test_stats_aggregate_and_per_device(self):
        arr = PMArray(SIZE, devices=2, crash_tracking=False)
        arr.store(0, b"a" * 64)                  # member 0
        arr.store(arr.dev_size, b"b" * 64)       # member 1
        assert arr.stats.bytes_stored == 128
        per = arr.device_stats
        assert [s.bytes_stored for s in per] == [64, 64]

    def test_sfence_only_fences_dirty_members(self):
        arr = PMArray(SIZE, devices=4, crash_tracking=False)
        arr.ntstore(0, b"x" * 64)  # dirties member 0 only
        arr.sfence()
        assert [s.fences for s in arr.device_stats] == [1, 0, 0, 0]
        # An idle fence still charges member 0 (device parity).
        arr.sfence()
        assert [s.fences for s in arr.device_stats] == [2, 0, 0, 0]


class TestSingleMemberIdentity:
    OPS = (
        ("store", 0, b"hello" * 20),
        ("ntstore", 4096, b"\xaa" * 256),
        ("atomic", 8192, b"\x42" * 8),
    )

    def _drive(self, dev):
        for kind, addr, data in self.OPS:
            if kind == "store":
                dev.store(addr, data)
                dev.clwb(addr, len(data))
            elif kind == "ntstore":
                dev.ntstore(addr, data)
            else:
                dev.atomic_store(addr, data)
        dev.sfence()
        dev.store(64, b"volatile-tail")  # left unfenced deliberately

    def test_images_and_counters_match_flat_device(self):
        dev = PMDevice(SIZE)
        arr = PMArray(SIZE, devices=1)
        self._drive(dev)
        self._drive(arr)
        assert arr.durable_image() == dev.durable_image()
        assert arr.volatile_image() == dev.volatile_image()
        assert arr.stats == dev.stats
        assert arr.dirty_lines() == dev.dirty_lines()
        assert arr.line_choices() == dev.line_choices()


class TestDelegation:
    def _ops(self, arr):
        return [(d * arr.dev_size + 128, bytes([d]) * 4096)
                for d in range(arr.device_count)]

    def test_scatter_gather_roundtrip(self):
        arr = PMArray(SIZE, devices=4, crash_tracking=False)
        ops = self._ops(arr)
        arr.ntstore_scatter(ops)
        arr.sfence()
        got = arr.load_gather([(addr, len(data)) for addr, data in ops])
        assert got == [data for _addr, data in ops]
        # Every member did its own I/O and its own fence.
        assert all(s.ntstores == 1 for s in arr.device_stats)
        assert all(s.fences == 1 for s in arr.device_stats)

    def test_spanning_gather_reassembles(self):
        arr = PMArray(SIZE, devices=2, crash_tracking=False)
        addr = arr.dev_size - 64
        arr.ntstore_scatter([(addr, b"L" * 64 + b"R" * 64)])
        arr.sfence()
        (got,) = arr.load_gather([(addr, 128)])
        assert got == b"L" * 64 + b"R" * 64


class TestCrashImages:
    def test_flat_line_numbering(self):
        arr = PMArray(SIZE, devices=2)
        arr.drain()
        arr.store(arr.dev_size + 64, b"y" * 64)  # member 1, local line 1
        lines = arr.dirty_lines()
        assert lines == [arr.dev_size // CACHE_LINE + 1]

    def test_crash_image_splits_choices_per_member(self):
        arr = PMArray(SIZE, devices=2)
        arr.drain()
        arr.store(0, b"a" * 64)                 # member 0
        arr.store(arr.dev_size, b"b" * 64)      # member 1
        choices = arr.line_choices()
        assert len(choices) == 2
        # Persist both lines' newest version: both writes visible.
        img = arr.crash_image({ln: n - 1 for ln, n in choices.items()})
        assert img[0:64] == b"a" * 64
        assert img[arr.dev_size:arr.dev_size + 64] == b"b" * 64
        # Persist neither: the old (zero) contents.
        img0 = arr.crash_image({ln: 0 for ln in choices})
        assert img0[0:64] == b"\0" * 64

    def test_enumerate_covers_product_of_members(self):
        arr = PMArray(SIZE, devices=2)
        arr.drain()
        arr.store(0, b"a" * 64)
        arr.store(arr.dev_size, b"b" * 64)
        images = list(arr.enumerate_crash_images())
        # Two dirty lines, two versions each -> four reachable states.
        assert len(images) == 4
        assert len({bytes(i) for i in images}) == 4

    def test_sample_is_deterministic(self):
        arr = PMArray(SIZE, devices=2)
        arr.store(0, b"a" * 64)
        a = [bytes(i) for i in arr.sample_crash_images(4, seed=7)]
        b = [bytes(i) for i in arr.sample_crash_images(4, seed=7)]
        assert a == b


class TestReboot:
    def test_from_image_roundtrip(self):
        arr = PMArray(SIZE, devices=4, stripe_pages=2, crash_tracking=False)
        arr.store(arr.dev_size * 2 + 5, b"payload")
        arr.drain()
        back = PMArray.from_image(arr.durable_image(), devices=4,
                                  stripe_pages=2)
        assert back.load(arr.dev_size * 2 + 5, 7) == b"payload"

    def test_reboot_device_without_superblock_is_flat(self):
        dev = reboot_device(b"\0" * SIZE)
        assert isinstance(dev, PMDevice)

    def test_reboot_device_reads_superblock_shape(self):
        from repro.core.mkfs import mkfs

        arr = PMArray(8 << 20, devices=2, stripe_pages=4, crash_tracking=False)
        mkfs(arr, 64)
        back = reboot_device(arr.durable_image())
        assert isinstance(back, PMArray)
        assert back.device_count == 2
        assert back.stripe_pages == 4
        assert back.media == arr.media


class TestObsLabels:
    def test_persist_calls_labelled_per_device_and_rolled_up(self):
        obs.reset()
        obs.enable(trace=False)
        try:
            arr = PMArray(SIZE, devices=2, crash_tracking=False)
            arr.ntstore(0, b"x" * 64)
            arr.sfence()                      # member 0
            arr.ntstore(arr.dev_size, b"y" * 64)
            arr.sfence()                      # member 1
            snap = obs.metrics.snapshot()
        finally:
            obs.disable()
            obs.reset()
        counters = snap["counters"]
        assert counters["pm.persist_calls{device=0}"] == 1
        assert counters["pm.persist_calls{device=1}"] == 1
        # The base name aggregates the labeled series.
        assert counters["pm.persist_calls"] == 2

    def test_publish_stats_accepts_labels(self):
        obs.reset()
        arr = PMArray(SIZE, devices=2, crash_tracking=False)
        arr.store(0, b"z" * 64)
        for d, stats in enumerate(arr.device_stats):
            obs.publish_stats("pm.member", stats, device=d)
        snap = obs.metrics.snapshot()
        counters = snap["counters"]
        assert counters["pm.member.bytes_stored{device=0}"] == 64
        assert counters["pm.member.bytes_stored"] == 64
        obs.reset()
