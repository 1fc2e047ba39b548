"""PMDevice's run log holds a store's payload only while part of it is
unfenced (behaviour is pinned by test_pm_device and the property test
tests/property/test_pm_runlog.py; this pins the memory bound)."""

from repro.pm.device import CACHE_LINE, PMDevice


def pending(dev):
    return [(run.addr, run.pending) for run in dev._runs], dev._queued


def test_partial_fence_trims_the_run_and_full_fence_drops_it():
    dev = PMDevice(4096)
    dev.store(0, b"a" * (3 * CACHE_LINE))
    dev.persist(CACHE_LINE, 1)  # the middle line only
    assert pending(dev) == ([(0, [(0, 1), (2, 3)])], [])
    dev.persist(0, 3 * CACHE_LINE)
    assert pending(dev) == ([], [])


def test_nothing_retained_after_persist_or_drain():
    dev = PMDevice(4096)
    dev.ntstore(100, b"b" * 200)
    dev.store(100, b"c" * 8)
    dev.persist(100, 200)
    assert pending(dev) == ([], [])
    dev.store(0, b"d" * 100)
    dev.ntstore(1000, b"e" * CACHE_LINE)
    dev.clwb(2000, 8)  # a clean line: queued, covers nothing
    dev.drain()
    assert pending(dev) == ([], [])
    assert dev.durable_image() == dev.volatile_image()


def test_load_image_reboots_in_place():
    dev = PMDevice(4096)
    dev.store(0, b"stale-bytes")
    dev.clwb(0, 11)
    dev.load_image(b"fresh")
    assert pending(dev) == ([], []) and dev.dirty_lines() == []
    dev.sfence()
    assert dev.load(0, 11) == dev.durable_image()[:11] == b"fresh" + bytes(6)
