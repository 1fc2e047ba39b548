"""Pool reservations through the crash / fsck / recovery lens.

The leak-only story of the pooled allocator: a refill persists the bitmap
bits and the reservation tags of the pages it pools under one fence, so the
*worst* a crash can do is strand reserved pages (tagged) or pages handed out
but not yet linked (untagged leaks).  fsck classifies intact
reservations as advisory ``page-reserved`` (a live volume with warm pools
is legal), ``--repair`` reclaims them, mount-time recovery reclaims them,
and no enumerated crash state can ever double-allocate.
"""

from repro.bugs.harness import make_fs
from repro.core.config import ARCKFS_PLUS
from repro.core.mkfs import ROOT_INO, mkfs
from repro.fsck import F_PAGE_LEAK, F_PAGE_RESERVED, run_fsck
from repro.fsck.repair import Repairer
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.allocator import DEFAULT_POOL_PAGES, RESERVATION_TAG, PageAllocator
from repro.pm.crash import explore
from repro.pm.device import PMDevice


def warm_volume():
    """A populated volume whose pools are deliberately left warm."""
    device, kernel, fs = make_fs(ARCKFS_PLUS)
    fs.mkdir("/d")
    for i in range(4):
        fs.write_file(f"/d/f{i}", b"payload-%d" % i)
    reserved = kernel.alloc.pooled_pages()
    assert reserved  # write_file refills ran; nothing drained them
    return device, kernel, fs, reserved


def test_live_volume_with_warm_pools_is_advisory_clean():
    device, kernel, _fs, reserved = warm_volume()
    report = run_fsck(device)
    assert report.clean, report.summary()
    assert report.classes() == [F_PAGE_RESERVED]
    assert {f.page for f in report.findings} == reserved
    assert all(f.advisory and f.repairable for f in report.findings)


def test_crash_image_reserved_pages_repaired():
    device, _kernel, _fs, reserved = warm_volume()
    # Crash: the durable media is all the next boot sees.
    dev2 = PMDevice.from_image(device.durable_image())

    report = run_fsck(dev2)
    assert {f.page for f in report.by_class(F_PAGE_RESERVED)} == reserved

    repaired = run_fsck(dev2, repair=True)
    assert repaired.repairs.get(F_PAGE_RESERVED) == len(reserved)
    assert repaired.findings == []  # not even advisory ones remain

    # The reclaimed pages are genuinely free again.
    alloc = PageAllocator(dev2, _kernel.geom)
    for page_no in reserved:
        assert not alloc.is_allocated(page_no)


def test_mount_recovery_reclaims_reserved_pages():
    device, _kernel, _fs, reserved = warm_volume()
    dev2 = PMDevice.from_image(device.durable_image())

    kernel2 = KernelController.mount(dev2, config=ARCKFS_PLUS)
    assert kernel2.last_recovery.repairs[F_PAGE_RESERVED] >= len(reserved)
    for page_no in reserved:
        assert not kernel2.alloc.is_allocated(page_no)
    # The volume is fully clean after recovery — no advisory residue.
    assert run_fsck(dev2).findings == []

    # Committed data survived the crash untouched.
    fs2 = LibFS(kernel2, "app2", uid=1000, config=ARCKFS_PLUS)
    for i in range(4):
        fd = fs2.open(f"/d/f{i}")
        assert fs2.pread(fd, 64, 0) == b"payload-%d" % i

    # Fresh allocations reuse the reclaimed pages without ever colliding
    # with a page an inode still claims.
    claimed = set(kernel2.page_owner)
    fresh = kernel2.alloc.alloc_many(len(reserved), zero=False)
    assert not set(fresh) & claimed


def test_no_enumerated_crash_state_double_allocates():
    """Every crash image reachable around a pool refill repairs to a fully
    clean volume; reservations surface as ``page-reserved`` when the tag
    persisted with the bit, ``page-leak`` when it tore — never anything
    worse, and repair converges either way."""
    device = PMDevice(2 * 1024 * 1024, crash_tracking=True)
    geom = mkfs(device, inode_count=64)
    alloc = PageAllocator(device, geom, pool_pages=8)
    alloc.alloc(zero=False)  # one refill: bits + tags under one fence

    seen_classes = set()

    def checker(rebooted, _point):
        report = run_fsck(rebooted, repair=True)
        assert report.findings == [], report.summary()
        for cls in report.repairs:
            assert cls in (F_PAGE_RESERVED, F_PAGE_LEAK), report.repairs
            seen_classes.add(cls)
        # No double-allocation possible: after repair every allocated bit
        # is claimed by exactly one inode (that is what clean means), so a
        # subsequent first-fit allocation cannot collide.
        return None

    explore(device, None, checker, budget=512)
    assert seen_classes  # the sweep actually exercised reserved/leaked pages


def test_a_crashed_pool_repairs_in_two_fences_and_any_crash_leaks_only():
    """Reclaiming a crashed 64-page pool scrubs every tag, fences, then
    clears every bit under one more fence (it persisted both per page: 128
    fences).  A crash anywhere in it leaves the pool as it was, some pages
    plain leaks (scrubbed, bit set) or free: never a tag on a free page."""
    device = PMDevice(2 * 1024 * 1024, crash_tracking=True)
    geom = mkfs(device, inode_count=64)
    PageAllocator(device, geom)._refill(DEFAULT_POOL_PAGES, 0)
    device.drain()
    report = run_fsck(device)
    assert len(report.by_class(F_PAGE_RESERVED)) == DEFAULT_POOL_PAGES

    def judge(rebooted, _point):
        worse = set(run_fsck(rebooted).classes()) - {F_PAGE_RESERVED, F_PAGE_LEAK}
        alloc = PageAllocator(rebooted, geom)
        tagged_free = [p for p in range(1, geom.page_count + 1)
                       if not alloc.is_allocated(p) and rebooted.load(
                           geom.page_off(p), len(RESERVATION_TAG)) == RESERVATION_TAG]
        return (worse, tagged_free) if worse or tagged_free else None

    fences = device.stats.fences
    points = explore(device, lambda: Repairer(device, geom, ROOT_INO).apply(
        report.findings), judge, budget=16)
    assert device.stats.fences - fences == 2
    assert [p.site for p in points] == ["Repairer._settle", "PageAllocator.rebuild", ""]
    assert [v for p in points for v in p.verdicts] == []
    assert run_fsck(device).findings == []
