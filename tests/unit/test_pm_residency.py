"""A created device commits memory by use.

``PMDevice(size)`` maps its buffer rather than zero-filling it, so creating
a device or a volume grows the resident set by what is touched, not by the
device's size, and a store commits about the pages it writes.  Untouched
ranges still read as zeros, in every shape and in every crash image.
Resident pages are read from ``/proc/self/statm``; without it the tests
are skipped.
"""

import gc
import os
from pathlib import Path

import pytest

from repro.api import Volume, VolumeConfig
from repro.pm.device import CACHE_LINE, PMDevice

STATM = Path("/proc/self/statm")
MiB = 1 << 20
SHAPES = [(devices, tracked) for devices in (1, 4) for tracked in (True, False)]
IDS = [f"{d}dev-{'tracked' if t else 'untracked'}" for d, t in SHAPES]

needs_statm = pytest.mark.skipif(not STATM.exists(),
                                 reason="no /proc/self/statm")


def resident() -> int:
    """Resident bytes of this process."""
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@needs_statm
def test_a_created_device_commits_nothing_up_front():
    before = resident()
    dev = PMDevice(256 * MiB, devices=4)
    assert resident() - before < 16 * MiB
    assert len(dev) == 256 * MiB


@needs_statm
def test_a_created_volume_commits_what_mkfs_writes():
    before = resident()
    vol = Volume.create(256 * MiB, VolumeConfig(devices=4, stripe_pages=16))
    grown = resident() - before
    vol.close()
    assert grown < 16 * MiB


@needs_statm
def test_a_store_commits_about_its_own_size():
    dev = PMDevice(256 * MiB, devices=4, crash_tracking=False)
    data = bytes(range(256)) * (MiB // 256)
    gc.collect()  # no earlier device may be unmapped while this measures
    before = resident()
    dev.store(100 * MiB, data)
    grown = resident() - before
    assert MiB * 0.9 <= grown < MiB * 1.5
    assert dev.load(100 * MiB, MiB) == data


@pytest.mark.parametrize("devices,tracked", SHAPES, ids=IDS)
def test_untouched_ranges_load_as_zeros(devices, tracked):
    dev = PMDevice(4 * MiB, devices=devices, crash_tracking=tracked)
    mid = dev.size // 2  # a member boundary when striped
    dev.store(mid - 8, b"\xff" * 16)
    for addr, n in ((0, 4096), (mid - 72, 64), (mid - 64, 56), (mid + 8, 56),
                    (dev.size - 4096, 4096)):
        assert dev.load(addr, n) == bytes(n)
    assert dev.load_gather([(0, 64), (dev.size - 64, 64)]) == bytes(128)
    if tracked:  # nothing fenced: every crash keeps the lines' zero floor
        assert dev.dirty_lines() == [mid // CACHE_LINE - 1, mid // CACHE_LINE]
        assert dev.durable_image() == bytes(dev.size)
        newest = {line: 1 for line in dev.dirty_lines()}
        assert dev.crash_image(newest) == dev.volatile_image()
    else:
        assert dev.durable_image() == dev.volatile_image()


@needs_statm
def test_loading_a_small_image_commits_about_the_image():
    dev = PMDevice(256 * MiB, devices=4)
    dev.store(dev.size - 4096, b"\xff" * 4096)  # stale bytes the load must clear
    gc.collect()
    before = resident()
    dev.load_image(b"\xab" * 4096)
    assert resident() - before < 16 * MiB
    assert dev.load(dev.size - 4096, 4096) == bytes(4096)


@pytest.mark.parametrize("shape", SHAPES + [None], ids=IDS + ["booted"])
def test_a_loaded_image_is_zero_past_its_end(shape):
    if shape is None:  # a bytearray buffer
        dev = PMDevice.from_image(bytes(4 * MiB))
    else:
        devices, tracked = shape
        dev = PMDevice(4 * MiB, devices=devices, crash_tracking=tracked)
    dev.store(0, b"\xff" * dev.size)  # every byte stale, none of it fenced
    image = bytes(range(256)) * 20 + b"\x01" * 3  # ends inside a page
    dev.load_image(image)
    padded = image + bytes(dev.size - len(image))
    assert dev.load(0, dev.size) == padded
    assert dev.dirty_lines() == []
    assert dev.durable_image() == padded
    assert dev.crash_image({}) == padded
    dev.store(dev.size - 64, b"\x02" * 64)  # the released tail takes stores again
    assert dev.load(dev.size - 128, 128) == bytes(64) + b"\x02" * 64
