"""Property tests for the PM device, allocator, paths and hash table."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency.rcu import RCU
from repro.core.config import ARCKFS_PLUS
from repro.libfs import paths
from repro.libfs.hashtable import DirHashTable, NodeFreelist
from repro.pm.allocator import PageAllocator
from repro.pm.device import CACHE_LINE, PMDevice
from repro.pm.layout import Geometry


class TestDeviceProps:
    @given(writes=st.lists(
        st.tuples(st.integers(0, 4000), st.binary(min_size=1, max_size=96)),
        max_size=20))
    @settings(max_examples=50)
    def test_volatile_view_is_last_write_wins(self, writes):
        dev = PMDevice(8192)
        shadow = bytearray(8192)
        for addr, data in writes:
            dev.store(addr, data)
            shadow[addr : addr + len(data)] = data
        assert dev.volatile_image() == bytes(shadow)

    @given(writes=st.lists(
        st.tuples(st.integers(0, 4000), st.binary(min_size=1, max_size=64)),
        max_size=12))
    @settings(max_examples=30)
    def test_drain_makes_volatile_durable(self, writes):
        dev = PMDevice(8192)
        for addr, data in writes:
            dev.store(addr, data)
        dev.drain()
        assert dev.durable_image() == dev.volatile_image()

    @given(writes=st.lists(
        st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=32)),
        min_size=1, max_size=6))
    @settings(max_examples=25)
    def test_every_crash_image_is_linewise_consistent(self, writes):
        """Each crash image equals, per cache line, some version that line
        actually held — never an invented byte pattern."""
        dev = PMDevice(4096)
        versions = {}  # lineno -> set of observed line contents
        snap = bytearray(4096)
        for line in range(4096 // CACHE_LINE):
            versions[line] = {bytes(64)}
        for addr, data in writes:
            snap[addr : addr + len(data)] = data
            for line in range(addr // 64, (addr + len(data) - 1) // 64 + 1):
                versions[line].add(bytes(snap[line * 64 : line * 64 + 64]))
        for image in dev.enumerate_crash_images(limit=4096):
            for line in versions:
                got = image[line * 64 : line * 64 + 64]
                assert got in versions[line]


class TestAllocatorProps:
    @given(ops=st.lists(st.booleans(), max_size=60))
    @settings(max_examples=30)
    def test_never_double_allocates(self, ops):
        dev = PMDevice(2 * 1024 * 1024)
        geom = Geometry.compute(dev.size, 64)
        alloc = PageAllocator(dev, geom)
        live = set()
        for do_alloc in ops:
            if do_alloc or not live:
                try:
                    page = alloc.alloc()
                except OSError:
                    continue
                assert page not in live
                live.add(page)
            else:
                page = live.pop()
                alloc.free(page)
        assert alloc.allocated_set() == live

    @given(keep=st.sets(st.integers(1, 100), max_size=40))
    @settings(max_examples=25)
    def test_rebuild_exactly_matches_reachable(self, keep):
        dev = PMDevice(2 * 1024 * 1024)
        geom = Geometry.compute(dev.size, 64)
        alloc = PageAllocator(dev, geom)
        for _ in range(50):
            alloc.alloc(zero=False)
        keep = {p for p in keep if p <= geom.page_count}
        alloc.rebuild(keep)
        assert alloc.allocated_set() == keep


class TestPathProps:
    comp = st.text(alphabet="abcxyz09._-", min_size=1, max_size=10).filter(
        lambda c: c not in (".", ".."))

    @given(parts=st.lists(comp, min_size=1, max_size=6))
    def test_normalize_idempotent(self, parts):
        p = "/" + "/".join(parts)
        assert paths.normalize(paths.normalize(p)) == paths.normalize(p)

    @given(parts=st.lists(comp, min_size=1, max_size=6))
    def test_split_join_roundtrip(self, parts):
        p = "/" + "/".join(parts)
        comps = paths.parse(p)
        rejoined = paths.join(comps[:-1]).rstrip("/") + "/" + comps[-1]
        assert paths.normalize(rejoined) == paths.normalize(p)

    @given(a=st.lists(comp, min_size=1, max_size=4),
           b=st.lists(comp, min_size=0, max_size=3))
    def test_descendant_by_construction(self, a, b):
        ancestor = "/" + "/".join(a)
        inside = ancestor + ("/" + "/".join(b) if b else "")
        # the §4.6 case-(2) check, as LibFS.rename spells it
        oldc = paths.parse(ancestor)
        assert paths.parse(inside)[:len(oldc)] == oldc

    @given(parts=st.lists(comp, min_size=1, max_size=5),
           slashes=st.lists(st.integers(1, 3), min_size=6, max_size=6))
    def test_components_consistent(self, parts, slashes):
        p = "".join("/" * n + c for n, c in zip(slashes, parts)) + "/" * slashes[-1]
        assert paths.parse(p) == tuple(parts)
        assert paths.normalize(p) == paths.join(parts) == "/" + "/".join(parts)


class TestHashTableProps:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "lookup"]),
                  st.sampled_from([b"a", b"b", b"c", b"dd", b"ee", b"f0"])),
        max_size=60))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops):
        rcu = RCU()
        table = DirHashTable(ARCKFS_PLUS, rcu, NodeFreelist(), tag="prop")
        model = {}
        for kind, name in ops:
            bucket = table.bucket_of(name)
            if kind == "insert":
                if name not in model:
                    with bucket.lock:
                        node = table.freelist.alloc(name, len(model) + 1, 1, 1, 1, None)
                        table.insert_locked(bucket, node)
                    model[name] = node.ino
            elif kind == "remove":
                with bucket.lock:
                    removed = table.remove_locked(bucket, name)
                if name in model:
                    assert removed is not None and removed.ino == model.pop(name)
                else:
                    assert removed is None
            else:
                hit = table.lookup(name)
                if name in model:
                    assert hit is not None and hit.ino == model[name]
                else:
                    assert hit is None
        assert table.count == len(model)
        assert {n.name for n in table.items()} == set(model)
        rcu.barrier()  # deferred frees all run cleanly
