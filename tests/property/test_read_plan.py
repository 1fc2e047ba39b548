"""Differential property: ``CoreState.read_file_data`` plans a read per run
of consecutive page numbers; the per-page planner it replaced is kept here
as the oracle.  Over fragmented page lists on flat and striped devices, the
two must return the same bytes *and* issue the same loads — ``loads`` and
``bytes_loaded`` in total and on every member."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corestate import CoreState
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry

#: ``(devices, stripe_pages)``; a flat device ignores its stripe unit.
SHAPES = list(itertools.product((1, 2, 4), (1, 2, 16)))

_DEVICES = {}


def device_for(devices, stripe_pages):
    """One device of random bytes per shape (the reads never write)."""
    key = (devices, stripe_pages)
    if key not in _DEVICES:
        dev = PMDevice(2 << 20, devices=devices, crash_tracking=False)
        geom = Geometry.compute(dev.size, 16, devices, stripe_pages)
        dev.load_image(random.Random(str(key)).randbytes(dev.size))
        _DEVICES[key] = dev, geom
    return _DEVICES[key]


def per_page_read(mem, geom, pages, size, off, n):
    """The planner ``read_file_data`` used to run: ``page_off`` per page,
    merging physically contiguous chunks."""
    size = min(size, len(pages) * PAGE_SIZE)
    if off >= size:
        return b""
    n = min(n, size - off)
    plan = []
    while n > 0:
        in_page = off % PAGE_SIZE
        chunk = min(n, PAGE_SIZE - in_page)
        addr = geom.page_off(pages[off // PAGE_SIZE]) + in_page
        if plan and plan[-1][0] + plan[-1][1] == addr:
            plan[-1] = (plan[-1][0], plan[-1][1] + chunk)
        else:
            plan.append((addr, chunk))
        off += chunk
        n -= chunk
    if len(plan) == 1:
        return mem.load(*plan[0])
    return mem.load_gather(plan)


def counters(dev):
    return ([(m.stats.loads, m.stats.bytes_loaded) for m in dev.members],
            (dev.stats.loads, dev.stats.bytes_loaded))


def measured(dev, read):
    before = counters(dev)
    data = read()
    after = counters(dev)
    members = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after[0], before[0])]
    return data, members, (after[1][0] - before[1][0], after[1][1] - before[1][1])


def physical_run(geom, first, length):
    """Pages that sit back to back on one member: what only the merge of
    adjacent chunks (not the run split) turns into a single load."""
    d, local = first % geom.devices, first // geom.devices
    out = []
    for lp in range(local, local + length):
        unit, in_unit = divmod(lp, geom.stripe_pages)
        out.append((unit * geom.devices + d) * geom.stripe_pages + in_unit + 1)
    return out


#: A file's pages as runs ``(first, length, kind)``: consecutive page
#: numbers, the same descending, or consecutive on one member's media.
runs = st.lists(st.tuples(st.integers(1, 400), st.integers(1, 40),
                          st.sampled_from(("up", "down", "physical"))),
                min_size=1, max_size=8)


@pytest.mark.parametrize("devices,stripe_pages", SHAPES)
@given(runs=runs, slack=st.integers(0, PAGE_SIZE - 1),
       off=st.integers(0, 1 << 20), n=st.integers(0, 1 << 20))
@settings(max_examples=60, deadline=None)
def test_run_planner_matches_the_per_page_oracle(devices, stripe_pages, runs,
                                                 slack, off, n):
    dev, geom = device_for(devices, stripe_pages)
    pages = []
    for first, length, kind in runs:
        run = (physical_run(geom, first, length) if kind == "physical"
               else list(range(first, first + length)))
        run = [p for p in run if p <= geom.page_count]
        pages += run[::-1] if kind == "down" else run
    if not pages:
        return
    size = len(pages) * PAGE_SIZE - slack
    off %= size + PAGE_SIZE               # now and then past EOF
    core = CoreState(dev, geom)
    want = measured(dev, lambda: per_page_read(dev, geom, pages, size, off, n))
    got = measured(dev, lambda: core.read_file_data(pages, size, off, n))
    assert got == want
