"""A tracked PMDevice keeps one buffer and an undo log: a store copies out
the bytes it overwrites and writes the caller's in place, a fence only
trims the log.  Crash semantics are pinned by tests/property/test_pm_runlog.py;
this pins the shape — one buffer, one fence trimming many runs, and
lock-free loads that never see another thread's bytes."""

import mmap
import sys
import threading

from repro.pm.device import CACHE_LINE, PMDevice

PAIRS = 64


def buffers(dev):
    """The distinct device-size buffers ``dev`` holds: byte strings or a
    mapping."""
    return {id(v) for v in vars(dev).values()
            if isinstance(v, (bytes, bytearray, mmap.mmap))
            and len(v) == dev.size}


def test_interleaved_store_clwb_pairs_leave_nothing_after_one_fence():
    dev = PMDevice(1 << 16)
    for i in range(PAIRS):
        dev.store(i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE)
        dev.clwb(i * CACHE_LINE, CACHE_LINE)
    dev.sfence()
    assert dev._runs == [] and dev.dirty_lines() == []
    assert dev.durable_image() == dev.volatile_image()


def test_a_clwb_before_its_store_leaves_that_line_dirty():
    dev = PMDevice(1 << 16)
    for i in range(PAIRS):
        addr, data = i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE
        if i % 2:
            dev.clwb(addr, CACHE_LINE)
            dev.store(addr, data)
        else:
            dev.store(addr, data)
            dev.clwb(addr, CACHE_LINE)
    dev.sfence()
    odd = list(range(1, PAIRS, 2))
    assert dev.dirty_lines() == odd
    assert dev.line_choices() == {i: 2 for i in odd}
    durable = dev.durable_image()
    for i in range(PAIRS):
        line = durable[i * CACHE_LINE:(i + 1) * CACHE_LINE]
        assert line == (bytes(CACHE_LINE) if i % 2 else bytes([i + 1]) * CACHE_LINE)


def test_a_tracked_device_keeps_one_buffer_through_its_first_store():
    dev = PMDevice(1 << 20)
    before = buffers(dev)
    assert len(before) == 1
    dev.store(100, b"first")
    assert buffers(dev) == before


def test_a_booted_image_is_the_one_buffer():
    image = bytes(range(256)) * 64
    dev = PMDevice.from_image(image)
    assert len(buffers(dev)) == 1
    assert dev.durable_image() == dev.volatile_image() == image
    dev.store(0, b"new")
    assert len(buffers(dev)) == 1 and dev.durable_image() == image


def test_threads_on_their_own_lines_read_back_their_own_bytes():
    dev = PMDevice(1 << 16)
    errors = []

    def worker(t):
        base = t * 16 * CACHE_LINE
        for i in range(2000):
            addr = base + (i % 16) * CACHE_LINE
            data = bytes([t + 1, i % 256]) * (CACHE_LINE // 2)
            dev.store(addr, data)
            dev.clwb(addr, CACHE_LINE)
            dev.sfence()
            if dev.load(addr, CACHE_LINE) != data:
                errors.append((t, i))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the device's calls
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    dev.drain()
    assert dev.dirty_lines() == []
    assert dev.durable_image() == dev.volatile_image()
