"""Concurrency properties of the pooled PM page allocator.

Under real threads hammering ``alloc``/``alloc_many``/``free`` — one of
them drawing extents that bypass the pools — no page is ever handed out
twice; pools drain on orderly shutdown; after a simulated crash with warm
pools, ``rebuild`` reclaims every reservation and nothing is
double-allocated on the next mount.
"""

import random
import threading

from repro.core.mkfs import load_geometry, mkfs
from repro.errors import NoSpace
from repro.pm.allocator import DEFAULT_POOL_PAGES, PageAllocator
from repro.pm.device import PMDevice

THREADS = 8
OPS_PER_THREAD = 300
#: The batch sizes thread 0 draws: around ``DEFAULT_POOL_PAGES`` and above.
EXTENT_PAGES = (64, 130)


def make_world(*, size=8 * 1024 * 1024, pool_pages=DEFAULT_POOL_PAGES):
    device = PMDevice(size, crash_tracking=False)
    geom = mkfs(device, inode_count=64)
    return device, geom, PageAllocator(device, geom, pool_pages=pool_pages)


def hammer(alloc, seed, errors, held_per_thread, tid):
    rng = random.Random(seed)
    held = held_per_thread[tid]
    try:
        for _ in range(OPS_PER_THREAD):
            r = rng.random()
            if r < 0.55 or not held:
                try:
                    held.append(alloc.alloc(zero=False))
                except NoSpace:
                    pass
            elif r < 0.75:
                # Thread 0 draws extents (pool_pages or more, straight from
                # the bitmap) while the others draw small batches.
                lo, hi = EXTENT_PAGES if tid == 0 else (2, 9)
                try:
                    held.extend(alloc.alloc_many(rng.randint(lo, hi),
                                                 zero=False))
                except NoSpace:
                    pass
            elif tid == 0:
                # ...and frees them as a batch, so it does not hoard the volume.
                start = rng.randrange(len(held))
                batch = held[start:start + EXTENT_PAGES[1]]
                del held[start:start + EXTENT_PAGES[1]]
                alloc.free(*batch)
            else:
                alloc.free(held.pop(rng.randrange(len(held))))
    except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
        errors.append(exc)


def run_hammer(alloc, *, seed):
    errors = []
    held = [[] for _ in range(THREADS)]
    workers = [
        threading.Thread(target=hammer,
                         args=(alloc, seed + tid, errors, held, tid))
        for tid in range(THREADS)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors, errors
    return held


def test_no_page_handed_out_twice():
    _device, geom, alloc = make_world()
    held = run_hammer(alloc, seed=1234)
    flat = [p for per in held for p in per]
    # No page is live in two hands at once...
    assert len(flat) == len(set(flat))
    # ...the allocator agrees about who holds what...
    assert alloc.allocated_set() == set(flat)
    # ...and pools never overlap either the held set or each other.
    assert not alloc.pooled_pages() & set(flat)
    assert alloc.free_pages() == geom.page_count - len(flat)


def test_small_pools_under_pressure_steal_not_duplicate():
    # A tiny volume + big pools forces refill failures and cross-pool
    # stealing; the no-duplicate invariant must survive.
    _device, _geom, alloc = make_world(size=1024 * 1024, pool_pages=16)
    held = run_hammer(alloc, seed=99)
    flat = [p for per in held for p in per]
    assert len(flat) == len(set(flat))
    assert alloc.allocated_set() == set(flat)


def test_orderly_shutdown_drains_every_pool():
    _device, geom, alloc = make_world()
    held = run_hammer(alloc, seed=7)
    flat = [p for per in held for p in per]
    alloc.drain_pools()
    assert alloc.pooled_pages() == set()
    # Durable bitmap == exactly the held pages: nothing reserved left behind.
    live = {p for p in range(1, geom.page_count + 1) if alloc.is_allocated(p)}
    assert live == set(flat)


def test_rebuild_reclaims_pools_after_crash():
    # Generous volume: pools must stay warm, not be cannibalized by steals.
    device, _geom, alloc = make_world(size=32 * 1024 * 1024)
    held = run_hammer(alloc, seed=42)
    flat = [p for per in held for p in per]
    # Guarantee a warm pool at "crash" time: one more alloc refills the
    # main thread's pool and leaves the rest of the batch reserved.
    flat.append(alloc.alloc(zero=False))
    reserved = alloc.pooled_pages()
    assert reserved

    # Crash: whatever made it to durable media is the next mount's world.
    image = device.durable_image()
    dev2 = PMDevice.from_image(image, crash_tracking=False)
    geom2 = load_geometry(dev2)
    alloc2 = PageAllocator(dev2, geom2)

    # Reserved bits survived the crash (leak-only story)...
    for page_no in reserved:
        assert alloc2.is_allocated(page_no)
    # ...and recovery reclaims exactly the unreachable ones.
    reclaimed = alloc2.rebuild(flat)
    assert reclaimed == len(reserved)
    assert alloc2.free_pages() == geom2.page_count - len(flat)

    # The next mount never double-allocates: everything handed out now is
    # disjoint from what survived.
    fresh = alloc2.alloc_many(min(64, alloc2.free_pages()), zero=False)
    assert not set(fresh) & set(flat)
