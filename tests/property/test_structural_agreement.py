"""The verifier, fsck and mount judge a volume by the same rules.

``repro.core.invariants`` holds every per-inode structural rule once; the
verifier raises the first violation, fsck reports each as the finding of
its class and mount drops the dentries they reject.  The first property
flips one byte inside one inode an application holds for write and
demands that the verifier's structural rejection of that inode (a
``VerifyFailure`` carrying a rule, as opposed to a shadow-table one) and
fsck's per-inode structural findings for it agree — both ways.  The three
reproducers after it are shapes the verifier used to accept.

The volume-wide rule is there once too: ``scan`` and ``resolve`` decide
which inodes the root reaches, under which edge, and mount reads the
volume with fsck's own check.  The last properties demand, on every
injected corruption and on seeded metadata byte flips, that mount's
report is fsck's on the raw image, that mount keeps exactly what that
check reaches and leaves no page a kept inode links free, and that fsck
on the mounted volume still finds what mount leaves to it as the raw
image showed it.
"""

import random
from collections import Counter

import pytest

from repro.api import Volume
from repro.core.corestate import CoreState
from repro.core.invariants import reach, resolve, scan
from repro.core.mkfs import ROOT_INO, load_geometry
from repro.errors import CorruptionDetected, NoEntry
from repro.fsck import INJECTORS, run_fsck
from repro.fsck.findings import (
    F_BAD_PAGE_KIND,
    F_CHAIN_CORRUPT,
    F_DANGLING_DENTRY,
    F_DIR_CYCLE,
    F_DUPLICATE_DENTRY,
    F_NLINK_MISMATCH,
    F_ORPHAN_INODE,
    F_PAGE_DOUBLE_USE,
    F_PAGE_LEAK,
    F_PAGE_RESERVED,
    F_PAGE_UNALLOCATED,
    F_SIZE_MISMATCH,
    F_TORN_DENTRY,
    TORN_CLASSES,
)
from repro.fsck.inject import _append
from repro.fsck.repair import mount_takes
from repro.pm.device import PMDevice
from repro.pm.layout import DENTRY_DELETED_OFF, INODE_SIZE, PAGE_SIZE, PAGEHDR_SIZE
from tests.conftest import dir_entries, lost
from tests.integration.test_hostile_images import TYPED, build_volume, metadata_offsets

pytestmark = pytest.mark.timeout(60)

PER_INODE = {F_TORN_DENTRY, F_DANGLING_DENTRY, F_CHAIN_CORRUPT,
             F_BAD_PAGE_KIND, F_SIZE_MISMATCH, F_NLINK_MISMATCH}
BITMAP = {F_PAGE_LEAK, F_PAGE_RESERVED, F_PAGE_UNALLOCATED}
ITYPE_OFF = DENTRY_DELETED_OFF - 1  # the dentry's itype byte
FLIPS = 300
AGREEMENT_FLIPS = 600


def inode_bytes(vol: Volume, ino: int):
    """The inode's record, the used part of its directory-log pages and the
    header plus mapped slots (and the next one) of its index pages."""
    geom, core = vol.kernel.geom, vol.kernel.core
    offsets = list(range(geom.inode_off(ino), geom.inode_off(ino) + INODE_SIZE))
    rec = core.read_inode(ino)
    if rec.is_dir:
        for page_no in core.dir_pages(rec):
            used = core.page_dentries(page_no)[1]
            base = geom.page_off(page_no)
            offsets.extend(range(base, base + PAGEHDR_SIZE + used + 8))
    else:
        index = core.index_pages(rec)
        slots = len(list(core.data_pages(index)))
        for page_no in index:
            base = geom.page_off(page_no)
            offsets.extend(range(base, base + PAGEHDR_SIZE + 8 * (slots + 1)))
    return offsets


def structural_findings(report, ino):
    """fsck's per-inode structural findings for ``ino``: a rule class, or a
    page the inode maps twice (its own claim is the one it loses to)."""
    return {f.cls for f in report.findings if f.ino == ino and (
        f.cls in PER_INODE or (f.cls == F_PAGE_DOUBLE_USE
                               and f.meta["holder"] == f.meta["loser"] == ino))}


def rule_of(kernel, app_id, ino):
    """Commit ``ino``: None if accepted, else the rule the verifier cited
    (None inside the failure too when it was a shadow-table rejection)."""
    try:
        kernel.commit(app_id, ino)
    except CorruptionDetected as exc:
        return exc.__cause__.rule or "shadow-table"
    return None


def test_verifier_rejects_by_a_rule_iff_fsck_finds_one():
    base = build_volume()
    image = base.device.durable_image()
    inos = sorted(base.kernel.shadow)
    offsets = {ino: inode_bytes(base, ino) for ino in inos}
    rng = random.Random(26)
    tally = {"structural": 0, "shadow-table": 0, "accepted": 0}
    diverged = []
    for _ in range(FLIPS):
        ino = rng.choice(inos)
        off = rng.choice(offsets[ino])
        vol = Volume.mount(image)
        kernel = vol.kernel
        kernel.register_app("app", uid=0)
        for each in inos:
            kernel.acquire("app", each, write=True)
        old = image[off]
        new = rng.choice([0x00, 0x01, 0x02, 0xFF, rng.randrange(256),
                          old ^ (1 << rng.randrange(8))])
        if new == old:
            new ^= 0x80
        vol.device.store(off, bytes([new]))
        found = structural_findings(
            run_fsck(PMDevice.from_image(vol.device.durable_image())), ino)
        rule = rule_of(kernel, "app", ino)
        if rule in (None, "shadow-table"):
            tally["accepted" if rule is None else "shadow-table"] += 1
            agree = not found
        else:
            tally["structural"] += 1
            agree = rule in found
        if not agree:
            diverged.append(f"ino {ino} byte {off}: {old:#04x} -> {new:#04x}: "
                            f"verifier {rule}, fsck {sorted(found)}")
    assert not diverged, "\n".join(diverged)
    # Not vacuous: every way a verdict can go is taken, often.
    assert min(tally.values()) >= 20, tally


# -- shapes the verifier used to accept --------------------------------------- #

def dentry_addr(vol: Volume, dir_ino: int, name: bytes) -> int:
    core = vol.kernel.core
    _d, loc = dir_entries(core, dir_ino)[name]
    return vol.kernel.geom.page_off(loc.page_no) + loc.offset


def test_a_non_empty_directory_cannot_be_retyped_into_a_file():
    """An I3 bypass: the retyped dentry used to pass as an unchanged entry,
    and the next mount read it as torn and wiped the subtree that ``rmdir``
    refuses to remove."""
    vol = Volume.create(2 << 20)
    with vol.session("A", uid=0) as a:
        a.makedirs("/d/sub")
        a.write_file("/d/sub/keep", b"kept")
    b = vol.session("B", uid=0)
    b.close(b.creat("/d/y"))                       # B holds /d for write
    d_ino, y_ino = b.stat("/d").ino, b.stat("/d/y").ino
    addr = dentry_addr(vol, d_ino, b"sub") + ITYPE_OFF
    mapping = b.fs._inodes[d_ino].mapping
    mapping.store(addr, b"\x01")                   # dir -> file
    mapping.persist(addr, 1)
    with pytest.raises(CorruptionDetected) as info:
        b.release_all()
    assert info.value.__cause__.rule == F_DANGLING_DENTRY
    mounted = Volume.mount(vol.device.durable_image())
    assert not (TORN_CLASSES | {F_CHAIN_CORRUPT}) & set(mounted.recovery.classes())
    # /d rolled back to before B's creat: only /y's record is left over.
    assert [(f.ino, f.meta["subtree"]) for f in mounted.recovery.by_class(F_ORPHAN_INODE)] \
        == [(y_ino, 1)] and not mounted.recovery.by_class(F_DIR_CYCLE)
    assert mounted.session("r").read_file("/d/sub/keep") == b"kept"


def test_a_file_cannot_map_its_own_index_page_as_data():
    vol = build_volume()
    s = vol.session("s", uid=0)
    s.pwrite(s.open("/a/page"), b"q", 0)           # holds /a/page for write
    mi = s.fs._inodes[s.stat("/a/page").ino]
    cs = mi.cs
    index = cs.index_pages(mi.record)
    cs.store_index_slots(index, 1, [index[0]])
    mi.mapping.sfence()
    cs.set_file_size(mi.ino, 2 * PAGE_SIZE)        # covered by two "pages"
    with pytest.raises(CorruptionDetected) as info:
        s.release_all()
    assert info.value.__cause__.rule == F_PAGE_DOUBLE_USE
    assert vol.fsck().clean
    assert s.read_file("/a/page") == b"p" * PAGE_SIZE  # rolled back


def test_a_dentry_cannot_be_repointed_at_a_sibling():
    """``/small`` re-pointed at ``/a``: the seq resolution hid the record
    behind ``/a``'s own, and the verifier detached ``/small`` silently."""
    vol = build_volume()
    s = vol.session("s", uid=0)
    s.commit_path("/")                             # holds the root for write
    assert s.stat("/small").ino == 4 and s.stat("/a").ino == 1
    addr = dentry_addr(vol, ROOT_INO, b"small")
    mapping = s.fs._inodes[ROOT_INO].mapping
    mapping.store(addr, b"\x01")                   # ino 4 -> 1
    mapping.persist(addr, 1)
    with pytest.raises(CorruptionDetected) as info:
        s.release_all()
    assert info.value.__cause__.rule == F_DANGLING_DENTRY
    assert vol.fsck().clean
    assert s.read_file("/small") == b"s" * 100


# -- mount keeps what fsck reaches -------------------------------------------- #

def key(f):
    """A finding without its prose (a stale target's reads differently
    once mount has wiped the record it named)."""
    return (f.cls, f.ino, f.page, f.name, repr(sorted(f.meta.items())))


def disagreement(image: bytes):
    """Mount ``image``; returns its recovery report (None: refused) and how
    mount departs from fsck on the raw image (None: it does not).  Mount's
    report must be fsck's on the raw image.  Mount must keep exactly the
    inodes fsck's graph merge reaches, each under the edge it picks, and
    leave no page a kept inode links (after mount's own trims and cuts)
    free.  fsck on the mounted volume must find what mount leaves to it as
    the raw image showed it, but where mount's own repairs reach."""
    try:
        vol = Volume.mount(image)
    except TYPED:
        return None, None  # refused outright: nothing kept to compare
    raw = PMDevice.from_image(image)
    geom = load_geometry(raw)
    core = CoreState(raw, geom)
    shapes = scan(core, core.read_inodes())
    ns = resolve(shapes, ROOT_INO)
    kernel, report = vol.kernel, vol.recovery
    checked = run_fsck(raw)
    if [f.as_dict() for f in report.findings] != [f.as_dict() for f in checked.findings]:
        return report, (f"mount's report {report.classes()}, "
                        f"fsck's on the raw image {checked.classes()}")
    # Every repair outside the bitmap is of a finding the report lists
    # (the bitmap's are of its re-check after the reclaims: see
    # test_a_reclaimed_orphans_pages_count_as_leak_repairs).
    taken = Counter(f.cls for f in checked.findings
                    if mount_takes(f, ns) and f.cls not in BITMAP)
    if {c: n for c, n in report.repairs.items() if c not in BITMAP} != taken:
        return report, f"mount repaired {report.repairs}, its findings {dict(taken)}"
    if set(kernel.shadow) != ns.reachable:
        return report, (f"mount keeps {sorted(kernel.shadow)}, "
                        f"fsck reaches {sorted(ns.reachable)}")
    for ino, sh in kernel.shadow.items():
        edge = ns.winners.get(ino)
        if ino != ROOT_INO and (sh.parent, sh.name) != (edge.parent, edge.dentry.name):
            return report, f"ino {ino} kept as {sh.parent}/{sh.name!r}, fsck's edge is {edge}"
    kept = scan(kernel.core, kernel.core.read_inodes())
    free = sorted((ino, p) for ino in kernel.shadow for p in kept[ino].pages()
                  if not kernel.alloc.is_allocated(p))
    if free:
        return report, f"(ino, page) linked but free after mount: {free}"
    gone = set().union(*(reach(ns.children, f.ino)
                         for f in checked.by_class(F_ORPHAN_INODE)))
    cut = {f.meta["loser"] for f in checked.by_class(F_PAGE_DOUBLE_USE)}

    def touched(f):
        """On an inode mount reclaims, or one it cuts before a shared page."""
        return f.ino in gone or f.ino in cut

    want = {key(f) for f in checked.findings
            if not mount_takes(f, ns) and not touched(f)}
    got = {key(f) for f in vol.fsck().findings if not mount_takes(f, ns)}
    return report, (f"fsck after mount: missing {sorted(want - got)}, "
                    f"new {sorted(got - want)}" if want != got else None)


def test_a_reclaimed_orphans_pages_count_as_leak_repairs():
    """Mount repairs the bitmap as its re-check after the reclaims judges
    it: a reclaimed orphan's pages are ``page-leak`` repairs that the
    report, the check before the reclaim, does not list."""
    vol = build_volume()
    core = vol.kernel.core
    d, loc = dir_entries(core, ROOT_INO)[b"small"]
    pages = vol.kernel.inode_pages[d.ino]
    core.tombstone(loc)
    vol.device.sfence()
    report = Volume.mount(vol.device.durable_image()).recovery
    assert [f.ino for f in report.by_class(F_ORPHAN_INODE)] == [d.ino]
    assert not BITMAP & set(report.classes())
    assert len(pages) == 2 and report.repairs == {F_ORPHAN_INODE: 1, F_PAGE_LEAK: 2}


def test_mount_keeps_what_fsck_reaches_on_every_injection():
    base = build_volume().device.durable_image()
    assert load_geometry(PMDevice.from_image(base)).page_count % 8
    diverged = {}
    # And a stripe bit in the bitmap's last byte beside a leak: mount's
    # bitmap repair used to clear it, though the class is fsck's.
    for names in [(name,) for name in sorted(INJECTORS)] + [("stripe-orphan", "page-leak")]:
        device = PMDevice.from_image(base)
        for name in names:
            INJECTORS[name][0](device)
        _report, why = disagreement(device.durable_image())
        if why:
            diverged["+".join(names)] = why
    assert not diverged, diverged


def test_mount_keeps_what_fsck_reaches_under_metadata_byte_flips():
    vol = build_volume()
    image = vol.device.durable_image()
    offsets = metadata_offsets(vol)
    rng = random.Random(42)
    diverged, found = [], 0
    for _ in range(AGREEMENT_FLIPS):
        off = rng.choice(offsets)
        value = rng.choice([0x00, 0x01, 0xFF, rng.randrange(256),
                            image[off] ^ (1 << rng.randrange(8))])
        if value == image[off]:
            value ^= 0x80
        forged = bytearray(image)
        forged[off] = value
        report, why = disagreement(bytes(forged))
        found += report is not None and bool(lost(report))
        if why:
            diverged.append(f"byte {off} <- {value:#04x}: {why}")
    assert not diverged, "\n".join(diverged)
    assert found >= AGREEMENT_FLIPS // 5, found  # not vacuous


def test_an_equal_seq_duplicate_resolves_as_fsck_resolves_it():
    """``/x`` live in ``/`` and in ``/d`` under one ``seq``: fsck's
    tie-break keeps the larger parent, ``/d``.  Mount used to keep the
    root's record, the first its walk from the root met, and tombstone the
    one fsck keeps."""
    vol = build_volume()
    core, geom = vol.kernel.core, vol.kernel.geom
    x, _loc = dir_entries(core, ROOT_INO)[b"small"]
    d_ino = vol.kernel.shadow[ROOT_INO].children[b"empty"]
    _append(core, geom, d_ino, b"small", x.ino, x.gen, x.itype, seq=x.seq)
    image = vol.device.durable_image()
    (dup,) = run_fsck(PMDevice.from_image(image)).by_class(F_DUPLICATE_DENTRY)
    assert dup.ino == ROOT_INO  # the root's record loses the tie
    mounted = Volume.mount(image)
    assert mounted.kernel.shadow[x.ino].parent == d_ino
    assert mounted.recovery.repairs[F_DUPLICATE_DENTRY] == 1
    s = mounted.session("reader")
    assert s.read_file("/empty/small") == b"s" * 100
    assert s.readdir("/") == ["a", "empty"]
    assert mounted.fsck().clean
    assert disagreement(image)[1] is None


def test_a_log_page_two_directories_reach_is_read_for_one():
    """``/a/b``'s tail pointed into ``/a``'s log page 2 (image byte 448):
    the page's records used to be edges of both directories, so ``/a``'s
    own ``b``, ``page`` and ``zero`` lost as duplicates, mount tombstoned
    them and the next mount reclaimed ``/a/b`` and both files."""
    image = bytearray(build_volume().device.durable_image())
    image[448] = 0x02
    raw = run_fsck(PMDevice.from_image(bytes(image)))
    assert raw.classes() == [F_PAGE_DOUBLE_USE]
    (double,) = raw.findings
    assert (double.ino, double.meta["holder"], double.page) == (2, 1, 2)
    mounted = Volume.mount(bytes(image))
    assert mounted.recovery.repairs == {F_PAGE_DOUBLE_USE: 1}  # /a/b's tail cut
    s = mounted.session("reader", uid=0)
    assert s.read_file("/a/page") == b"p" * PAGE_SIZE
    assert s.read_file("/a/zero") == b""
    assert s.stat("/a/b").is_dir
    assert not Volume.mount(mounted.device.durable_image()).recovery.repairs
    assert disagreement(bytes(image))[1] is None


def test_a_directory_lists_only_its_own_log_pages_after_mount():
    """The same image, read by a LibFS: ``/a/b``'s raw chain reached
    ``/a``'s page, so the LibFS listed ``/a``'s ``b``, ``page`` and
    ``zero`` under ``/a/b`` (``/a/b/b`` a walkable cycle) while the
    kernel's shadow table held ``/a/b``'s own seven names.  Mount cuts
    the tail, so every reader sees the page once."""
    image = bytearray(build_volume().device.durable_image())
    image[448] = 0x02
    mounted = Volume.mount(bytes(image))
    s = mounted.session("reader", uid=0)
    own = ["big"] + [f"f{i}" for i in range(6)]
    assert s.readdir("/a/b") == own
    assert sorted(mounted.kernel.shadow[s.stat("/a/b").ino].children) == [
        name.encode() for name in own]
    with pytest.raises(NoEntry):
        s.stat("/a/b/b")
    assert s.readdir("/a") == ["b", "page", "zero"]
    assert s.read_file("/a/page") == b"p" * PAGE_SIZE
    assert s.read_file("/a/b/big") == b"B" * (3 * PAGE_SIZE + 17)
    s.release_all()
    assert mounted.fsck().clean


def cross_linked_files() -> PMDevice:
    """``/y``'s first index slot mapping ``/x``'s first data page."""
    vol = Volume.create(2 << 20)
    with vol.session("builder", uid=0) as s:
        s.write_file("/x", b"x" * 5000)
        s.write_file("/y", b"y" * 5000)
    vol.close()
    device = PMDevice.from_image(vol.device.durable_image())
    INJECTORS["page-double-use"][0](device)
    return device


def test_cross_linked_files_are_cut_at_mount():
    """``/y``'s first index slot maps ``/x``'s first data page.  Mount
    used to repair only the bitmap: ``/y`` read ``/x``'s bytes, the page
    owner map credited the page to ``/y``, and releasing ``/x`` failed
    (``page 2 owned by inode 2``).  Mount now cuts ``/y`` at that slot."""
    mounted = Volume.mount(cross_linked_files().durable_image())
    s = mounted.session("reader", uid=0)
    assert s.read_file("/x") == b"x" * 5000
    assert b"x" not in s.read_file("/y")
    # The cut clears every slot past the shared one: an append maps no
    # page the mount freed.
    s.pwrite(s.open("/y"), b"z" * 10, s.stat("/y").size)
    s.release_all()
    assert mounted.fsck().clean
    assert mounted.recovery.repairs[F_PAGE_DOUBLE_USE] == 1
    assert not Volume.mount(mounted.device.durable_image()).recovery.repairs


def test_a_loser_beside_a_reclaimed_holder_is_cut_in_one_mount():
    """``/x``, the shared page's holder, is an orphan mount reclaims: the
    bitmap is re-checked by the claims the cut was judged by, so ``/y``'s
    pages past its cut are freed by this mount, not left to the next."""
    device = cross_linked_files()
    core = CoreState(device, load_geometry(device))
    core.tombstone(dir_entries(core, ROOT_INO)[b"x"][1])
    device.sfence()
    mounted = Volume.mount(device.durable_image())
    assert {F_ORPHAN_INODE, F_PAGE_DOUBLE_USE} <= set(mounted.recovery.repairs)
    assert mounted.session("reader", uid=0).readdir("/") == ["y"]
    assert mounted.fsck().clean
    assert not Volume.mount(mounted.device.durable_image()).recovery.repairs
