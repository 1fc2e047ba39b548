"""Who owns a buffer on the PM data path.

``PMDevice`` copies each byte of an access once: ``load`` and
``load_gather`` copy out of a view of the device's buffer, and a store
copies a bytes-like argument (a caller's ``memoryview`` slice, say) straight
in.  Nothing may alias across that line: mutating a store's source afterwards
changes no device byte and no crash image, a later store changes no bytes an
earlier load returned, and the gather is byte- and counter-identical to a
loop of loads.  Every shape: tracked and untracked, flat and four members.
"""

import random
from dataclasses import replace

import pytest

from repro import obs
from repro.core.corestate import CoreState
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry

SIZE = 1 << 20
SHAPES = [(devices, tracked) for devices in (1, 4) for tracked in (True, False)]
IDS = [f"{d}dev-{'tracked' if t else 'untracked'}" for d, t in SHAPES]


@pytest.fixture(params=SHAPES, ids=IDS)
def dev(request):
    devices, tracked = request.param
    return PMDevice(SIZE, devices=devices, crash_tracking=tracked)


def sources(payload):
    """The same bytes as a bytearray, a whole memoryview, and a view slice."""
    padded = bytearray(b"!" * 7 + payload + b"!" * 9)
    return {"bytearray": bytearray(payload),
            "memoryview": memoryview(bytearray(payload)),
            "slice": memoryview(padded)[7:7 + len(payload)]}


def scribble(src):
    src[:] = b"\xee" * len(src)


def edge(dev):
    """The first member boundary (the middle of a flat device)."""
    return dev.size // max(dev.devices, 2)


def spans(dev):
    """Extents at a line, across a member boundary, and at the end."""
    return [(64, 200), (edge(dev) - 100, 300), (dev.size - PAGE_SIZE, 4096)]


def state(dev):
    return (dev.volatile_image(), dev.durable_image(),
            list(dev.sample_crash_images(3, seed=5)))


@pytest.mark.parametrize("kind", ["bytearray", "memoryview", "slice"])
def test_mutating_a_store_source_changes_nothing_stored(dev, kind):
    for addr, n in spans(dev):
        payload = random.Random(addr).randbytes(n)
        src = sources(payload)[kind]
        dev.store(addr, src)
        before = state(dev)
        scribble(src)
        assert state(dev) == before
        assert dev.load(addr, n) == payload
        dev.clwb(addr, n)
        dev.sfence()
        assert dev.durable_image()[addr:addr + n] == payload


@pytest.mark.parametrize("kind", ["bytearray", "memoryview", "slice"])
def test_mutating_scatter_sources_changes_nothing_stored(dev, kind):
    payloads = [random.Random(a).randbytes(n) for a, n in spans(dev)]
    srcs = [sources(p)[kind] for p in payloads]
    dev.ntstore_scatter([(a, s) for (a, _n), s in zip(spans(dev), srcs)])
    before = state(dev)
    for src in srcs:
        scribble(src)
    assert state(dev) == before
    dev.sfence()
    for (addr, n), payload in zip(spans(dev), payloads):
        assert dev.durable_image()[addr:addr + n] == payload


def test_a_later_store_changes_no_earlier_load(dev):
    ops = spans(dev)
    for addr, n in ops:
        dev.store(addr, b"a" * n)
    loaded = [dev.load(addr, n) for addr, n in ops]
    gathered = dev.load_gather(ops)
    assert all(isinstance(b, bytes) for b in [*loaded, gathered])
    for addr, n in ops:
        dev.store(addr, b"b" * n)
    dev.drain()
    assert loaded == [b"a" * n for _a, n in ops]
    assert gathered == b"a" * sum(n for _a, n in ops)


def counters(dev):
    return [(m.stats.loads, m.stats.bytes_loaded) for m in dev.members], \
        (dev.stats.loads, dev.stats.bytes_loaded)


@pytest.mark.parametrize("seed", range(8))
def test_gather_is_a_loop_of_loads(dev, seed):
    rng = random.Random(seed)
    dev.store(0, rng.randbytes(dev.size))
    ops = [(a, rng.randrange(0, 3 * PAGE_SIZE))
           for a in (rng.randrange(dev.size - 3 * PAGE_SIZE)
                     for _ in range(rng.randrange(1, 6)))]
    ops.append((edge(dev) - 10, 20))  # one piece per member it touches
    start = counters(dev)
    looped = b"".join(dev.load(a, n) for a, n in ops)
    mid = counters(dev)
    gathered = dev.load_gather(ops)
    end = counters(dev)
    assert gathered == looped

    def delta(a, b):
        return ([(x[0] - y[0], x[1] - y[1]) for x, y in zip(a[0], b[0])],
                (a[1][0] - b[1][0], a[1][1] - b[1][1]))

    assert delta(end, mid) == delta(mid, start)


def test_a_striped_extent_store_owns_its_bytes():
    """``write_extent_data`` hands the device views of the caller's buffer,
    one per stripe run; the device copies them, so the caller may reuse it."""
    dev = PMDevice(4 << 20, devices=4)
    geom = Geometry.compute(dev.size, 16, 4, 2)
    core = CoreState(dev, geom)
    payload = random.Random(1).randbytes(6 * PAGE_SIZE - 300)
    src = bytearray(payload)
    stats = replace(dev.stats)
    core.write_extent_data(1, 100, src)
    cost = obs.stats_diff(dev.stats, stats)
    scribble(src)
    assert core.read_file_data(list(range(1, 7)), 6 * PAGE_SIZE, 100,
                               len(payload)) == payload
    # Three stripe runs of two pages: three ntstores, one per run.
    assert (cost.ntstores, cost.bytes_stored) == (3, len(payload))
    assert [m.stats.ntstores for m in dev.members] == [1, 1, 1, 0]
