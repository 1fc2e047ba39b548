"""Differential property: ``CoreState.write_extent_data`` stores a write
that fits in one page without planning runs.  The run planner it skips is
kept here as the oracle.  For every in-page offset and length class, on a
flat device and on a 4-member striped one, with pages at both edges of a
stripe unit, the two must leave the same bytes *and* issue the same stores:
``PMStats`` in total and every member's, compared whole."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corestate import CoreState
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry

STRIPE_PAGES = 4
#: ``devices``: a flat device and a 4-member striped one.
SHAPES = (1, 4)


def run_path_write(mem, geom, start_page, in_page_off, data):
    """The general path ``write_extent_data`` takes for a multi-page
    extent: split it into physically contiguous runs, one ``ntstore`` for
    one run, else one ``ntstore_scatter`` of a view per run."""
    npages = (in_page_off + len(data) + PAGE_SIZE - 1) // PAGE_SIZE
    geom.page_off(start_page + npages - 1)
    runs = list(geom.extent_runs(start_page, npages))
    if len(runs) == 1:
        mem.ntstore(geom.page_off(start_page) + in_page_off, data)
        return
    view, ops, pos, off = memoryview(data), [], 0, in_page_off
    for run_start, run_count in runs:
        nbytes = min(len(data) - pos, run_count * PAGE_SIZE - off)
        ops.append((geom.page_off(run_start) + off, view[pos:pos + nbytes]))
        pos += nbytes
        off = 0
    mem.ntstore_scatter(ops)


def fresh(devices):
    dev = PMDevice(1 << 20, devices=devices, crash_tracking=False)
    return dev, Geometry.compute(dev.size, 16, devices, STRIPE_PAGES)


def counters(dev):
    return (dataclasses.replace(dev.stats),
            [dataclasses.replace(m.stats) for m in dev.members])


def delta(dev, write):
    """What ``write`` did to ``dev``: its counters' deltas, and the bytes."""
    before = counters(dev)
    write()
    after = counters(dev)

    def minus(a, b):
        return {f.name: getattr(a, f.name) - getattr(b, f.name)
                for f in dataclasses.fields(a)}

    return (minus(after[0], before[0]),
            [minus(a, b) for a, b in zip(after[1], before[1])],
            dev.load(0, dev.size))


def pages_of_interest(geom):
    """The first data page, both edges of the first and of a later stripe
    unit, and the last page."""
    last_unit = (geom.page_count // STRIPE_PAGES - 1) * STRIPE_PAGES
    return sorted({1, STRIPE_PAGES, STRIPE_PAGES + 1, last_unit,
                   last_unit + 1, geom.page_count})


def offsets_and_lengths():
    """Each in-page offset class against each length class that fits."""
    offsets = (0, 1, 63, 64, 100, 2048, PAGE_SIZE - 64, PAGE_SIZE - 1)
    for off in offsets:
        room = PAGE_SIZE - off
        for n in sorted({1, 7, 63, 64, 65, 4000, room - 1, room}):
            if 1 <= n <= room:
                yield off, n


@pytest.mark.parametrize("devices", SHAPES)
def test_one_page_write_matches_the_run_path(devices):
    shortcut, oracle = fresh(devices), fresh(devices)
    core = CoreState(shortcut[0], shortcut[1])
    for page in pages_of_interest(shortcut[1]):
        for off, n in offsets_and_lengths():
            data = bytes((page + off + n + i) & 0xFF for i in range(n))
            got = delta(shortcut[0],
                        lambda: core.write_extent_data(page, off, data))
            want = delta(oracle[0], lambda: run_path_write(
                oracle[0], oracle[1], page, off, data))
            assert got == want, (page, off, n)


@pytest.mark.parametrize("devices", SHAPES)
@given(page=st.integers(1, 200), off=st.integers(0, PAGE_SIZE - 1),
       n=st.integers(1, PAGE_SIZE), seed=st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_any_one_page_write_matches_the_run_path(devices, page, off, n, seed):
    n = min(n, PAGE_SIZE - off)
    data = bytes((seed + i) & 0xFF for i in range(n))
    shortcut, oracle = fresh(devices), fresh(devices)
    got = delta(shortcut[0], lambda: CoreState(*shortcut).write_extent_data(
        page, off, data))
    want = delta(oracle[0], lambda: run_path_write(*oracle, page, off, data))
    assert got == want
