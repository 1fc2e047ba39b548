"""A striped PMDevice: member attribution, delegation, crash images, reboot.

A striped volume is one ``PMDevice`` with ``devices`` members, each a
line-aligned slice of the flat address space that carries its own counters.
Every test here pins one facet of that: accesses are counted on the members
they touch, a fence is charged per member stored to, scatter/gather match
inline semantics, the flat crash-line numbering feeds the same enumeration a
flat device uses, and an image reboots into the member count its superblock
records.
"""

import pytest

from repro import obs
from repro.errors import PersistOrderError
from repro.pm.device import CACHE_LINE, PMDevice

SIZE = 1 << 20  # 1 MiB devices keep crash enumeration cheap


class TestRouting:
    def test_member_sizing(self):
        arr = PMDevice(SIZE, devices=4)
        assert arr.devices == 4 and len(arr.members) == 4
        assert arr.dev_size == SIZE // 4
        assert len(arr) == SIZE
        assert [m.index for m in arr.members] == [0, 1, 2, 3]

    def test_roundtrip_across_member_boundary(self):
        arr = PMDevice(SIZE, devices=4, crash_tracking=False)
        addr = arr.dev_size - 100  # straddles members 0 and 1
        payload = bytes(range(200))
        arr.store(addr, payload)
        assert arr.load(addr, 200) == payload
        # The two members each saw their share, and the store counts once
        # per piece.
        stored = [m.stats.bytes_stored for m in arr.members]
        assert stored == [100, 100, 0, 0]
        assert arr.stats.stores == 2

    def test_atomic_store_never_spans_members(self):
        arr = PMDevice(SIZE, devices=2, crash_tracking=False)
        # Member boundaries are cache-line aligned, so any naturally
        # aligned 8-byte store lands in exactly one member.
        assert arr.dev_size % CACHE_LINE == 0
        arr.atomic_store(arr.dev_size, b"\x11" * 8)
        assert arr.load(arr.dev_size, 8) == b"\x11" * 8
        assert [m.stats.bytes_stored for m in arr.members] == [0, 8]

    def test_out_of_range_raises(self):
        arr = PMDevice(SIZE, devices=2, crash_tracking=False)
        with pytest.raises(PersistOrderError):
            arr.load(SIZE - 4, 8)

    def test_atomic_store_out_of_range_is_refused_like_a_flat_device(self):
        """An atomic store outside the device raises ``PersistOrderError``
        and changes no byte; a crash choice for a line past the end is
        ignored — on a striped device exactly as on a flat one."""
        for arr in (PMDevice(SIZE, devices=2), PMDevice(SIZE)):
            arr.store(0, b"a" * 64)
            arr.store(arr.size - 8, b"z" * 8)
            before = arr.volatile_image()
            for addr in (-8, arr.size):
                with pytest.raises(PersistOrderError):
                    arr.atomic_store(addr, b"\xee" * 8)
            assert arr.volatile_image() == before
            far_line = arr.size // CACHE_LINE + 5
            assert arr.crash_image({far_line: 0}) == arr.durable_image()

    def test_stats_aggregate_and_per_device(self):
        arr = PMDevice(SIZE, devices=2, crash_tracking=False)
        arr.store(0, b"a" * 64)                  # member 0
        arr.store(arr.dev_size, b"b" * 64)       # member 1
        assert arr.stats.bytes_stored == 128
        assert [m.stats.bytes_stored for m in arr.members] == [64, 64]

    def test_sfence_only_fences_dirty_members(self):
        arr = PMDevice(SIZE, devices=4, crash_tracking=False)
        arr.ntstore(0, b"x" * 64)  # dirties member 0 only
        arr.sfence()
        assert [m.stats.fences for m in arr.members] == [1, 0, 0, 0]
        # An idle fence still charges member 0 (device parity).
        arr.sfence()
        assert [m.stats.fences for m in arr.members] == [2, 0, 0, 0]
        assert arr.stats.fences == 2

    def test_tracked_drain_fences_every_member(self):
        arr = PMDevice(SIZE, devices=4)
        arr.store(0, b"x" * 64)
        arr.drain()
        assert [m.stats.fences for m in arr.members] == [1, 1, 1, 1]
        assert arr.dirty_lines() == []


class TestDelegation:
    def _ops(self, arr):
        return [(d * arr.dev_size + 128, bytes([d]) * 4096)
                for d in range(arr.devices)]

    def test_scatter_gather_roundtrip(self):
        arr = PMDevice(SIZE, devices=4, crash_tracking=False)
        ops = self._ops(arr)
        arr.ntstore_scatter(ops)
        arr.sfence()
        got = arr.load_gather([(addr, len(data)) for addr, data in ops])
        assert got == b"".join(data for _addr, data in ops)
        # Every member did its own I/O and its own fence.
        assert all(m.stats.ntstores == 1 for m in arr.members)
        assert all(m.stats.fences == 1 for m in arr.members)

    @pytest.mark.parametrize("where, size", [
        (128, 4096),        # inside member 0
        (-100, 200),        # across members 0 and 1, unaligned both ends
        (-64, 64),          # the last line of member 0
        (-3000, 3 * (SIZE // 4) + 100),  # across all four members
        (77, 1),            # one byte, unaligned
        (-32, 0),           # zero bytes
        (SIZE // 4, 0),     # zero bytes at a member boundary
    ])
    def test_ntstore_charges_what_store_and_clwb_charge(self, where, size):
        """An untracked striped ``ntstore`` splits its range once; every
        counter, the device's and each member's, and the fence it owes
        must equal ``store`` + ``clwb`` plus one ntstore per member piece."""
        nt = PMDevice(SIZE, devices=4, crash_tracking=False)
        ref = PMDevice(SIZE, devices=4, crash_tracking=False)
        addr = nt.dev_size + where if where < 0 else where
        data = bytes(range(256)) * (size // 256 + 1)
        data = data[:size]
        nt.ntstore(addr, data)
        ref.store(addr, data)
        if size:
            ref.clwb(addr, size)
        pieces = ref._pieces(addr, size)
        ref.stats.ntstores += len(pieces)
        for d, _n in pieces:
            ref.members[d].stats.ntstores += 1
        assert nt.stats == ref.stats
        assert [m.stats for m in nt.members] == [m.stats for m in ref.members]
        assert nt.load(addr, size) == data
        nt.sfence()
        ref.sfence()
        assert [m.stats.fences for m in nt.members] == \
            [m.stats.fences for m in ref.members]

    def test_spanning_gather_reassembles(self):
        arr = PMDevice(SIZE, devices=2, crash_tracking=False)
        addr = arr.dev_size - 64
        arr.ntstore_scatter([(addr, b"L" * 64 + b"R" * 64)])
        arr.sfence()
        got = arr.load_gather([(addr, 128)])
        assert got == b"L" * 64 + b"R" * 64


class TestCrashImages:
    def test_flat_line_numbering(self):
        arr = PMDevice(SIZE, devices=2)
        arr.drain()
        arr.store(arr.dev_size + 64, b"y" * 64)  # member 1, local line 1
        lines = arr.dirty_lines()
        assert lines == [arr.dev_size // CACHE_LINE + 1]

    def test_crash_image_splits_choices_per_member(self):
        arr = PMDevice(SIZE, devices=2)
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
        arr = PMDevice(SIZE, devices=2)
        arr.drain()
        arr.store(0, b"a" * 64)
        arr.store(arr.dev_size, b"b" * 64)
        images = list(arr.enumerate_crash_images())
        # Two dirty lines, two versions each -> four reachable states.
        assert len(images) == 4
        assert len({bytes(i) for i in images}) == 4

    def test_sample_is_deterministic(self):
        arr = PMDevice(SIZE, devices=2)
        arr.store(0, b"a" * 64)
        a = [bytes(i) for i in arr.sample_crash_images(4, seed=7)]
        b = [bytes(i) for i in arr.sample_crash_images(4, seed=7)]
        assert a == b


class TestReboot:
    def test_from_image_roundtrip(self):
        from repro.core.mkfs import mkfs

        arr = PMDevice(8 << 20, devices=4, crash_tracking=False)
        mkfs(arr, 64, stripe_pages=2)
        arr.store(arr.dev_size * 2 + 5, b"payload")
        arr.drain()
        back = PMDevice.from_image(arr.durable_image())
        assert back.load(arr.dev_size * 2 + 5, 7) == b"payload"

    def test_from_image_without_superblock_is_flat(self):
        dev = PMDevice.from_image(b"\0" * SIZE)
        assert dev.devices == 1 and len(dev.members) == 1

    def test_from_image_reads_superblock_shape(self):
        from repro.core.mkfs import load_geometry, mkfs

        arr = PMDevice(8 << 20, devices=2, crash_tracking=False)
        mkfs(arr, 64, stripe_pages=4)
        back = PMDevice.from_image(arr.durable_image())
        assert back.devices == 2
        assert load_geometry(back).stripe_pages == 4
        assert back.durable_image() == arr.durable_image()


class TestObsLabels:
    """A member's counts reach the registry the way every layer record's
    do: an observed run publishes its delta, labelled ``device=``."""

    @staticmethod
    def _published(devices, access):
        from repro.api import Volume, VolumeConfig
        from repro.obs.driver import layer_snapshot, publish_layer_deltas

        vol = Volume.create(8 << 20, VolumeConfig(
            devices=devices, crash_tracking=False, inode_count=64, name="v"))
        fs = vol.session("s").fs
        before = layer_snapshot(vol, fs)
        access(vol.device)
        publish_layer_deltas(vol, fs, before)
        return obs.metrics.snapshot()["counters"]

    def test_fences_labelled_per_device_and_rolled_up(self):
        def access(arr):
            arr.ntstore(0, b"x" * 64)
            arr.sfence()                      # member 0
            arr.ntstore(arr.dev_size, b"y" * 64)
            arr.sfence()                      # member 1

        counters = self._published(2, access)
        assert counters["pm.fences{device=0,volume=v}"] == 1
        assert counters["pm.fences{device=1,volume=v}"] == 1
        # The base name aggregates the labeled series: the device's total.
        assert counters["pm.fences"] == 2
        assert counters["pm.ntstores"] == 2

    def test_flat_device_fences_carry_no_device_label(self):
        counters = self._published(1, lambda dev: dev.sfence())
        assert [k for k in counters if k.startswith("pm.fences")] == [
            "pm.fences{volume=v}", "pm.fences"]
        assert counters["pm.fences"] == 1

    def test_publish_stats_accepts_labels(self):
        arr = PMDevice(SIZE, devices=2, crash_tracking=False)
        arr.store(0, b"z" * 64)
        for m in arr.members:
            obs.publish_stats("pm.member", m.stats, device=m.index)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["pm.member.bytes_stored{device=0}"] == 64
        assert counters["pm.member.bytes_stored"] == 64
