"""Unit tests for the pooled PM page allocator (per-thread page pools)."""

from dataclasses import replace

import pytest

from repro import obs
from repro.core.mkfs import mkfs
from repro.errors import DoubleFree, NoSpace
from repro.pm.allocator import DEFAULT_POOL_PAGES, RESERVATION_TAG, PageAllocator
from repro.pm.crash import explore
from repro.pm.device import PMDevice, PMStats
from repro.pm.layout import PAGE_SIZE


def make_world(*, size=4 * 1024 * 1024, pool_pages=DEFAULT_POOL_PAGES):
    device = PMDevice(size, crash_tracking=False)
    geom = mkfs(device, inode_count=64)
    return device, geom, PageAllocator(device, geom, pool_pages=pool_pages)


def bitmap_popcount(device, geom):
    nbytes = (geom.page_count + 7) // 8
    raw = device.load(geom.bitmap_off, nbytes)
    return bin(int.from_bytes(raw, "little")).count("1")


class TestPoolMechanics:
    def test_refill_is_one_lock_one_fence(self):
        device, _geom, alloc = make_world()
        fences0 = device.stats.fences
        alloc.alloc(zero=False)
        # One refill: one shared-lock acquisition, one fence for the whole
        # batch (bitmap range + every pooled page's reservation tag).
        assert alloc.stats.lock_acquires == 1
        assert alloc.stats.pool_refills == 1
        assert device.stats.fences - fences0 == 1
        # The rest of the batch is served without touching shared state.
        for _ in range(alloc.pool_pages - 1):
            alloc.alloc(zero=False)
        assert alloc.stats.lock_acquires == 1
        assert alloc.stats.pool_hits == alloc.pool_pages - 1

    def test_reserved_pages_carry_the_tag(self):
        device, geom, alloc = make_world()
        alloc.alloc(zero=False)
        pooled = alloc.pooled_pages()
        assert pooled  # the refill over-reserved into the pool
        for page_no in pooled:
            head = device.load(geom.page_off(page_no), len(RESERVATION_TAG))
            assert head == RESERVATION_TAG
            assert alloc.is_allocated(page_no)

    def test_zeroing_alloc_scrubs_the_tag(self):
        device, geom, alloc = make_world()
        page = alloc.alloc(zero=True)
        assert device.load(geom.page_off(page), PAGE_SIZE) == b"\0" * PAGE_SIZE

    def test_pool_size_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            make_world(pool_pages=0)

    def test_alloc_many_is_contiguous_on_fresh_volume(self):
        _device, _geom, alloc = make_world()
        pages = alloc.alloc_many(32, zero=False)
        assert pages == list(range(pages[0], pages[0] + 32))

    def test_free_then_double_free_raises(self):
        _device, _geom, alloc = make_world()
        page = alloc.alloc()
        alloc.free(page)
        with pytest.raises(ValueError):
            alloc.free(page)


def tagged(device, geom, pages):
    return {p for p in pages
            if device.load(geom.page_off(p), len(RESERVATION_TAG)) == RESERVATION_TAG}


class TestRefillTags:
    """A refill stamps ``RESERVATION_TAG`` on the pages it pools and on no
    page it hands straight out: those are written by their caller before
    they are linked, and until then they are a plain allocated-but-unlinked
    page, which mount reclaims."""

    def test_a_big_alloc_many_stores_no_tag(self):
        device, geom, alloc = make_world()
        stats = replace(device.stats)
        pages = alloc.alloc_many(128, zero=False)
        cost = obs.stats_diff(device.stats, stats)
        assert alloc.pooled_pages() == set()
        assert (cost.stores, cost.fences) == (1, 1)  # one bitmap run, one fence
        assert cost.bytes_stored == 128 // 8
        assert not tagged(device, geom, pages)

    def test_alloc_tags_exactly_what_it_pools(self):
        device, geom, alloc = make_world()
        stats = replace(device.stats)
        page = alloc.alloc(zero=False)
        cost = obs.stats_diff(device.stats, stats)
        pooled = alloc.pooled_pages()
        assert len(pooled) == alloc.pool_pages - 1
        assert cost.stores == 1 + alloc.pool_pages - 1
        assert tagged(device, geom, pooled | {page}) == pooled

    def test_alloc_many_tags_only_the_pooled_remainder(self):
        device, geom, alloc = make_world()
        pages = alloc.alloc_many(10, zero=False)
        pooled = alloc.pooled_pages()
        assert len(pooled) == alloc.pool_pages - 10
        assert tagged(device, geom, pooled | set(pages)) == pooled

    @pytest.mark.parametrize("devices", [1, 4])
    def test_a_crash_before_the_link_leaks_only(self, devices):
        """Crash after the refill's fence, with the caller's data write in
        flight and nothing linked: fsck on the raw image finds the handed-out
        pages as leaks and the pooled ones as reservations, nothing else;
        mount reclaims both and leaves the volume fsck-clean."""
        from repro.api import Volume, VolumeConfig
        from repro.fsck import F_PAGE_LEAK, F_PAGE_RESERVED, run_fsck

        vol = Volume.create(8 << 20, VolumeConfig(inode_count=64, devices=devices,
                                                  crash_tracking=True))
        alloc, geom, device = vol.kernel.alloc, vol.kernel.geom, vol.device
        handed = alloc.alloc_many(3, zero=False)
        pooled = alloc.pooled_pages()
        assert len(pooled) == alloc.pool_pages - 3
        assert tagged(device, geom, pooled | set(handed)) == pooled
        for page_no in handed:  # the caller's data write, not yet fenced
            device.ntstore(geom.page_off(page_no), b"d" * PAGE_SIZE)
        assert device.dirty_lines()

        def judge(rebooted, _point):
            report = run_fsck(rebooted)
            assert {f.page for f in report.by_class(F_PAGE_LEAK)} == set(handed)
            assert {f.page for f in report.by_class(F_PAGE_RESERVED)} == pooled
            assert set(report.classes()) == {F_PAGE_LEAK, F_PAGE_RESERVED}
            back = Volume.mount(rebooted)
            assert back.recovery.repairs == {F_PAGE_LEAK: len(handed),
                                             F_PAGE_RESERVED: len(pooled)}
            assert back.fsck().findings == []
            assert back.session("r").readdir("/") == []
        explore(device, None, judge, budget=6, seed=3)


class TestExtentsBypassThePool:
    """The pool serves allocations below ``pool_pages``; an extent
    (``alloc_many`` of ``pool_pages`` or more) refills for itself, so the
    next small allocation still finds the pool warm."""

    def warm(self, **kw):
        device, geom, alloc = make_world(**kw)
        alloc.alloc(zero=False)
        assert len(alloc.pooled_pages()) == alloc.pool_pages - 1
        return device, geom, alloc

    def test_an_extent_leaves_the_pool_as_it_was(self):
        _device, _geom, alloc = self.warm()
        pooled = alloc.pooled_pages()
        pages = alloc.alloc_many(alloc.pool_pages, zero=False)
        assert alloc.pooled_pages() == pooled
        assert not set(pages) & pooled

    def test_a_small_alloc_after_an_extent_is_a_pool_hit(self):
        device, _geom, alloc = self.warm()
        alloc.alloc_many(128, zero=False)
        stats, refills, hits = (replace(device.stats), alloc.stats.pool_refills,
                                alloc.stats.pool_hits)
        alloc.alloc_many(4, zero=False)
        cost = obs.stats_diff(device.stats, stats)
        assert alloc.stats.pool_refills == refills
        assert alloc.stats.pool_hits - hits == 4
        assert (cost.stores, cost.fences) == (0, 0)

    def test_whole_volume_extent_draws_its_own_pool_not_only_steals(self):
        """The bitmap is short by the warm pool; ``_steal`` skips the own
        pool, so the shortfall has to come from it first."""
        _device, geom, alloc = self.warm(size=1024 * 1024)
        held = alloc.allocated_set()
        pages = alloc.alloc_many(alloc.free_pages(), zero=False)
        assert len(pages) == len(set(pages)) == geom.page_count - len(held)
        assert alloc.free_pages() == 0 and alloc.pooled_pages() == set()
        assert alloc.allocated_set() == held | set(pages)

    def test_an_extent_past_free_pages_changes_nothing(self):
        device, geom, alloc = self.warm(size=1024 * 1024)
        nbytes = (geom.page_count + 7) // 8
        before = (alloc.free_pages(), device.load(geom.bitmap_off, nbytes),
                  alloc.pooled_pages(), alloc.allocated_set())
        with pytest.raises(NoSpace):
            alloc.alloc_many(alloc.free_pages() + 1, zero=False)
        assert (alloc.free_pages(), device.load(geom.bitmap_off, nbytes),
                alloc.pooled_pages(), alloc.allocated_set()) == before


class TestConstruction:
    def test_allocated_set_is_the_set_bits_of_a_used_image(self):
        """A used image whose last bitmap byte is partial: construction
        seeds the hand-out set from exactly the set bits."""
        from repro.api import Volume, VolumeConfig
        from repro.core.mkfs import load_geometry

        vol = Volume.create(1 << 20, VolumeConfig(inode_count=32))
        with vol.session("w") as s:
            s.write_file("/f", b"f" * 5 * PAGE_SIZE)
        geom, alloc = vol.kernel.geom, vol.kernel.alloc
        assert geom.page_count % 8  # the last bitmap byte is partial
        pages = alloc.alloc_many(alloc.free_pages(), zero=False)
        alloc.free(*pages[::3])
        image = vol.device.durable_image()
        device = PMDevice.from_image(image, crash_tracking=False)
        geom = load_geometry(device)
        raw = device.load(geom.bitmap_off, (geom.page_count + 7) // 8)
        bits = {p for p in range(1, geom.page_count + 1)
                if raw[(p - 1) >> 3] >> ((p - 1) & 7) & 1}
        assert geom.page_count in bits
        assert PageAllocator(device, geom).allocated_set() == bits


class TestBatchedFree:
    """``free(*pages)`` is the one free path: one lock, no fence (the bit
    clears ride the caller's next one), at most one stored bitmap byte per
    page, and a refused batch changes nothing."""

    def test_128_pages_cost_one_lock_and_no_fence(self):
        device, _geom, alloc = make_world()
        pages = alloc.alloc_many(128, zero=False)
        stats, locks, frees = replace(device.stats), alloc.stats.lock_acquires, \
            alloc.stats.frees
        alloc.free(*pages)
        cost = obs.stats_diff(device.stats, stats)
        assert alloc.stats.lock_acquires - locks == 1
        assert alloc.stats.frees - frees == 128
        assert cost.fences == 0
        assert 1 <= cost.stores and cost.bytes_stored <= 128
        assert not set(pages) & alloc.allocated_set()
        assert not any(alloc.is_allocated(p) for p in pages)

    def test_distant_runs_are_stored_apart(self):
        """The clean bitmap between two far-apart pages is never written."""
        device, _geom, alloc = make_world()
        pages = alloc.alloc_many(200, zero=False)
        stats = replace(device.stats)
        alloc.free(pages[0], pages[-1])
        cost = obs.stats_diff(device.stats, stats)
        assert (cost.stores, cost.bytes_stored, cost.fences) == (2, 2, 0)

    @pytest.mark.parametrize("bad", ["duplicate", "already-free", "out-of-range"])
    def test_a_bad_batch_raises_and_changes_nothing(self, bad):
        device, geom, alloc = make_world()
        pages = alloc.alloc_many(16, zero=False)
        alloc.free(pages[-1])
        batch = {"duplicate": pages[:4] + [pages[2]],
                 "already-free": pages[:4] + [pages[-1]],
                 "out-of-range": pages[:4] + [geom.page_count + 1]}[bad]
        nbytes = (geom.page_count + 7) // 8
        before = (device.load(geom.bitmap_off, nbytes), alloc.free_pages(),
                  alloc.allocated_set(), device.stats.fences)
        with pytest.raises(DoubleFree):
            alloc.free(*batch)
        assert (device.load(geom.bitmap_off, nbytes), alloc.free_pages(),
                alloc.allocated_set(), device.stats.fences) == before

    def test_drain_and_rollback_share_the_helper(self, monkeypatch):
        _device, _geom, alloc = make_world(size=1024 * 1024)
        calls = []
        helper = PageAllocator._clear_bits

        def spy(self, pages):
            calls.append(len(pages))
            return helper(self, pages)

        monkeypatch.setattr(PageAllocator, "_clear_bits", spy)
        page = alloc.alloc(zero=False)
        alloc.drain_pools()
        with pytest.raises(NoSpace):
            alloc.alloc_many(alloc.free_pages() + 1, zero=False)
        alloc.free(page)
        assert len(calls) == 3
        assert calls[0] == DEFAULT_POOL_PAGES - 1 and calls[2] == 1


class TestRollback:
    """Satellite 1: ``alloc_many`` must not leak pages on mid-batch NoSpace."""

    @pytest.mark.parametrize("pool_pages", [DEFAULT_POOL_PAGES, 1],
                             ids=["pooled", "one-page"])
    def test_alloc_many_rolls_back_on_nospace(self, pool_pages):
        _device, geom, alloc = make_world(
            size=1024 * 1024, pool_pages=pool_pages)
        free0 = alloc.free_pages()
        with pytest.raises(NoSpace):
            alloc.alloc_many(geom.page_count + 1, zero=False)
        assert alloc.free_pages() == free0
        assert alloc.allocated_set() == set()

    @pytest.mark.parametrize("pool_pages", [DEFAULT_POOL_PAGES, 1],
                             ids=["pooled", "one-page"])
    def test_rollback_after_partial_volume(self, pool_pages):
        _device, _geom, alloc = make_world(
            size=1024 * 1024, pool_pages=pool_pages)
        held = alloc.alloc_many(10, zero=False)
        free0 = alloc.free_pages()
        with pytest.raises(NoSpace):
            alloc.alloc_many(free0 + 1, zero=False)
        assert alloc.free_pages() == free0
        assert alloc.allocated_set() == set(held)


class TestCaches:
    """Satellite 2: O(1) free count / allocated set stay exact."""

    @pytest.mark.parametrize("pool_pages", [DEFAULT_POOL_PAGES, 1],
                             ids=["pooled", "one-page"])
    def test_free_pages_matches_ground_truth(self, pool_pages):
        device, geom, alloc = make_world(pool_pages=pool_pages)
        assert alloc.free_pages() == geom.page_count
        pages = [alloc.alloc(zero=False) for _ in range(20)]
        pages += alloc.alloc_many(13, zero=False)
        for page_no in pages[:7]:
            alloc.free(page_no)
        # free_pages == total - handed out; pool reservations still count
        # as available.
        assert alloc.free_pages() == geom.page_count - (len(pages) - 7)
        assert alloc.allocated_set() == set(pages[7:])
        # The durable bitmap agrees: set bits == handed out + pooled.
        assert bitmap_popcount(device, geom) == \
            len(pages) - 7 + len(alloc.pooled_pages())

    def test_allocated_set_is_a_copy(self):
        _device, _geom, alloc = make_world()
        page = alloc.alloc(zero=False)
        snap = alloc.allocated_set()
        snap.clear()
        assert alloc.allocated_set() == {page}


class TestRecycle:
    """A transaction's checkpoint keeps its log pages: ``tag_for_pool``
    stamps up to ``pool_pages`` of them, the caller fences, ``repool``
    keeps them — bits still set — for the thread's next log, apart from
    the pages small allocations draw, and the rest are freed as before."""

    def kept(self, alloc, device, count):
        """``count`` handed-out pages, tagged, fenced and kept."""
        pages = alloc.alloc_many(count, zero=False)
        kept = alloc.tag_for_pool(pages)
        device.sfence()
        alloc.repool(kept)
        return kept

    def test_up_to_pool_pages_are_tagged_and_kept(self):
        device, geom, alloc = make_world(pool_pages=8)
        alloc.alloc(zero=False)                      # pool: 7
        alloc.alloc_many(3, zero=False)              # pool: 4
        pages = alloc.alloc_many(12, zero=False)     # an extent: pool untouched
        stats = replace(device.stats)
        kept = alloc.tag_for_pool(pages)
        cost = obs.stats_diff(device.stats, stats)
        assert kept == pages[:8]                     # the pool's own 4 count not
        assert (cost.stores, cost.clwbs, cost.fences) == (8, 8, 0)
        heads = [device.load(geom.page_off(p), len(RESERVATION_TAG)) for p in pages]
        assert heads == [RESERVATION_TAG] * 8 + [bytes(len(RESERVATION_TAG))] * 4
        device.sfence()
        before = alloc.pooled_pages()
        alloc.repool(kept)
        alloc.free(*pages[8:])
        assert alloc.pooled_pages() == before | set(kept)
        assert len(alloc.pooled_pages()) == 4 + alloc.pool_pages
        assert all(alloc.is_allocated(p) for p in kept)
        assert not any(alloc.is_allocated(p) for p in pages[8:])
        assert not set(pages) & alloc.allocated_set()
        assert alloc.free_pages() == geom.page_count - 4   # handed out: 1 + 3
        assert alloc.tag_for_pool(pages[8:]) == []      # a full keep keeps none

    def test_a_log_draws_its_kept_pages_with_no_bitmap_store(self):
        device, _geom, alloc = make_world()
        pages = self.kept(alloc, device, 4)
        stats, refills = replace(device.stats), alloc.stats.pool_refills
        assert alloc.alloc_many(4, zero=False, log=True) == pages
        assert alloc.stats.pool_refills == refills
        assert obs.stats_diff(device.stats, stats) == PMStats()  # no access

    def test_small_allocations_between_logs_leave_the_kept_pages(self):
        """Only a log draws them, so the next log lands on the same pages
        (and, striped, fences the same members) whatever ran in between."""
        device, _geom, alloc = make_world()
        pages = self.kept(alloc, device, 4)
        others = [alloc.alloc(zero=False)] + alloc.alloc_many(3, zero=False)
        assert not set(others) & set(pages)
        assert alloc.alloc_many(2, zero=False, log=True) == pages[:2]
        assert alloc.alloc_many(3, zero=False, log=True)[:2] == pages[2:]

    def test_kept_pages_are_drawn_under_space_pressure(self):
        device, geom, alloc = make_world(size=1024 * 1024)
        pages = self.kept(alloc, device, 4)
        got = alloc.alloc_many(alloc.free_pages(), zero=False)
        assert set(pages) <= set(got)
        assert alloc.free_pages() == 0 and alloc.pooled_pages() == set()
        alloc.free(got[0])
        device.sfence()
        self.kept(alloc, device, 1)                  # the bitmap's last page
        assert alloc.alloc(zero=False) == got[0]     # the own keep, stolen
        with pytest.raises(NoSpace):
            alloc.alloc(zero=False)

    def test_drain_leaves_no_recycled_page_reserved(self):
        device, _geom, alloc = make_world()
        pages = self.kept(alloc, device, 4)
        alloc.drain_pools()
        assert alloc.pooled_pages() == set()
        assert not any(alloc.is_allocated(p) for p in pages)

    def test_a_privileged_set_bit_evicts_a_kept_page(self):
        device, _geom, alloc = make_world()
        pages = self.kept(alloc, device, 4)
        alloc._set_bit(pages[0])
        assert pages[0] not in alloc.pooled_pages()
        assert alloc.alloc_many(3, zero=False, log=True) == pages[1:]


class TestDrainAndRebuild:
    def test_drain_returns_reserves_to_bitmap(self):
        device, geom, alloc = make_world()
        page = alloc.alloc(zero=False)
        reserved = alloc.pooled_pages()
        assert reserved
        drained = alloc.drain_pools()
        assert drained == len(reserved)
        assert alloc.pooled_pages() == set()
        assert alloc.free_pages() == geom.page_count - 1
        for page_no in reserved:
            assert not alloc.is_allocated(page_no)
        assert alloc.is_allocated(page)
        # Idempotent.
        assert alloc.drain_pools() == 0

    def test_rebuild_reclaims_pool_reservations(self):
        _device, geom, alloc = make_world()
        handed = [alloc.alloc(zero=False) for _ in range(5)]
        reserved = alloc.pooled_pages()
        assert reserved
        reclaimed = alloc.rebuild(handed)
        assert reclaimed == len(reserved)
        assert alloc.pooled_pages() == set()
        assert alloc.allocated_set() == set(handed)
        assert alloc.free_pages() == geom.page_count - len(handed)
        # Reclaimed pages are allocatable again, and nothing is ever handed
        # out twice.
        fresh = alloc.alloc_many(len(reserved), zero=False)
        assert not set(fresh) & set(handed)

    def test_privileged_set_bit_evicts_from_pools(self):
        _device, _geom, alloc = make_world()
        alloc.alloc(zero=False)
        victim = sorted(alloc.pooled_pages())[0]
        alloc._set_bit(victim)  # kernel rollback re-claims the page
        assert victim not in alloc.pooled_pages()
        assert alloc.is_allocated(victim)
        # The pool must never hand it out now.
        remaining = len(alloc.pooled_pages())
        seen = {alloc.alloc(zero=False) for _ in range(remaining)}
        assert victim not in seen


class TestLegacyParity:
    """``pool_pages=1`` (the fsck repairer and injectors) keeps what those
    callers had from the seed allocator: one lock and one fence per
    allocation, nothing left reserved, and the same first-fit order as
    the kernel's pooled allocator."""

    def test_legacy_lock_per_alloc(self):
        device, _geom, alloc = make_world(pool_pages=1)
        fences0 = device.stats.fences
        for _ in range(8):
            alloc.alloc(zero=False)
        assert alloc.stats.lock_acquires == 8
        assert alloc.stats.pool_hits == 0
        assert device.stats.fences - fences0 == 8

    def test_legacy_never_reserves(self):
        _device, _geom, alloc = make_world(pool_pages=1)
        alloc.alloc(zero=False)
        assert alloc.pooled_pages() == set()
        assert alloc.drain_pools() == 0
        alloc.alloc_many(5, zero=False)
        assert alloc.pooled_pages() == set()
        assert alloc.drain_pools() == 0

    def test_same_first_fit_order(self):
        _d1, _g1, pooled = make_world()
        _d2, _g2, single = make_world(pool_pages=1)
        a = [pooled.alloc(zero=False) for _ in range(16)]
        b = [single.alloc(zero=False) for _ in range(16)]
        assert a == b
