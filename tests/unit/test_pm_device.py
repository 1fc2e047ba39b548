"""Unit tests for the simulated PM device (repro.pm.device).

These pin down the persistency semantics everything above relies on:
stores are volatile until flush+fence, un-fenced lines can persist in any
order (the §4.2 window), fences collapse the nondeterminism.
"""

import pytest

from repro.errors import PersistOrderError
from repro.pm import CACHE_LINE, PMDevice, explore
from repro.pm.crash import crash_images


@pytest.fixture
def dev():
    return PMDevice(64 * 1024)


class TestBasics:
    def test_load_store_roundtrip(self, dev):
        dev.store(100, b"hello")
        assert dev.load(100, 5) == b"hello"

    def test_initial_zero(self, dev):
        assert dev.load(0, 128) == b"\0" * 128

    def test_size_rounded_to_line(self):
        dev = PMDevice(100)
        assert dev.size == 128

    def test_out_of_range_rejected(self, dev):
        with pytest.raises(PersistOrderError):
            dev.load(dev.size - 2, 4)
        with pytest.raises(PersistOrderError):
            dev.store(-1, b"x")

    def test_store_spanning_lines(self, dev):
        data = bytes(range(200 % 256)) * 1
        data = bytes(i % 256 for i in range(200))
        dev.store(CACHE_LINE - 10, data)
        assert dev.load(CACHE_LINE - 10, 200) == data

    def test_empty_store_is_noop(self, dev):
        dev.store(0, b"")
        assert dev.dirty_lines() == []

    def test_stats_counted(self, dev):
        dev.store(0, b"abcd")
        dev.load(0, 4)
        dev.clwb(0, 4)
        dev.sfence()
        assert dev.stats.stores == 1
        assert dev.stats.loads == 1
        assert dev.stats.clwbs == 1
        assert dev.stats.fences == 1
        assert dev.stats.bytes_stored == 4


class TestAtomicity:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_atomic_sizes_ok(self, dev, n):
        dev.atomic_store(n * 4, b"\xff" * n)

    def test_atomic_bad_size(self, dev):
        with pytest.raises(PersistOrderError):
            dev.atomic_store(0, b"\xff" * 3)

    def test_atomic_misaligned(self, dev):
        with pytest.raises(PersistOrderError):
            dev.atomic_store(4, b"\xff" * 8)


class TestDurability:
    def test_store_not_durable_until_fence(self, dev):
        dev.store(0, b"AAAA")
        assert dev.durable_image()[:4] == b"\0\0\0\0"
        dev.clwb(0, 4)
        assert dev.durable_image()[:4] == b"\0\0\0\0"
        dev.sfence()
        assert dev.durable_image()[:4] == b"AAAA"

    def test_fence_without_clwb_persists_nothing(self, dev):
        dev.store(0, b"AAAA")
        dev.sfence()
        assert dev.durable_image()[:4] == b"\0\0\0\0"

    def test_clwb_snapshots_current_content(self, dev):
        # A store after clwb is NOT covered by the following fence.
        dev.store(0, b"A")
        dev.clwb(0, 1)
        dev.store(0, b"B")
        dev.sfence()
        assert dev.durable_image()[0:1] == b"A"
        assert dev.load(0, 1) == b"B"

    def test_ntstore_needs_fence(self, dev):
        dev.ntstore(0, b"ZZ")
        assert dev.durable_image()[:2] == b"\0\0"
        dev.sfence()
        assert dev.durable_image()[:2] == b"ZZ"

    def test_persist_helper(self, dev):
        dev.store(10, b"xyz")
        dev.persist(10, 3)
        assert dev.durable_image()[10:13] == b"xyz"

    def test_drain(self, dev):
        dev.store(0, b"A")
        dev.store(5000, b"B")
        dev.drain()
        img = dev.durable_image()
        assert img[0:1] == b"A" and img[5000:5001] == b"B"
        assert dev.dirty_lines() == []


class TestCrashStates:
    def test_unfenced_line_may_or_may_not_persist(self, dev):
        dev.store(0, b"A")
        images = list(dev.enumerate_crash_images())
        firsts = sorted(img[0:1] for img in images)
        assert firsts == [b"\0", b"A"]

    def test_unfenced_lines_unordered(self, dev):
        """The §4.2 window: a later store can persist while an earlier one
        does not, when no fence separates them (different cache lines)."""
        dev.store(0, b"BODY")  # line 0
        dev.clwb(0, 4)  # queued but NOT fenced
        dev.store(CACHE_LINE, b"MARK")  # line 1 — 'later' store
        dev.clwb(CACHE_LINE, 4)
        states = set()
        for img in dev.enumerate_crash_images():
            states.add((img[0:4] == b"BODY", img[CACHE_LINE : CACHE_LINE + 4] == b"MARK"))
        assert (False, True) in states  # marker persisted, body lost

    def test_fence_orders_persistence(self, dev):
        """With the ArckFS+ fence, marker-persisted implies body-persisted."""
        dev.store(0, b"BODY")
        dev.clwb(0, 4)
        dev.sfence()  # the one-line patch of §4.2
        dev.store(CACHE_LINE, b"MARK")
        dev.clwb(CACHE_LINE, 4)
        for img in dev.enumerate_crash_images():
            if img[CACHE_LINE : CACHE_LINE + 4] == b"MARK":
                assert img[0:4] == b"BODY"

    def test_multiple_versions_of_one_line(self, dev):
        dev.store(0, b"1")
        dev.store(0, b"2")
        dev.store(0, b"3")
        firsts = {img[0:1] for img in dev.enumerate_crash_images()}
        assert firsts == {b"\0", b"1", b"2", b"3"}

    def test_fence_raises_floor(self, dev):
        dev.store(0, b"1")
        dev.persist(0, 1)
        dev.store(0, b"2")
        firsts = {img[0:1] for img in dev.enumerate_crash_images()}
        assert firsts == {b"1", b"2"}  # b"\0" no longer reachable

    def test_enumeration_limit(self, dev):
        for i in range(20):
            dev.store(i * CACHE_LINE, b"x")
        with pytest.raises(PersistOrderError):
            list(dev.enumerate_crash_images(limit=100))

    def test_sampling(self, dev):
        for i in range(20):
            dev.store(i * CACHE_LINE, b"x")
        imgs = list(dev.sample_crash_images(16, seed=7))
        assert len(imgs) == 16

    def test_torn_multiline_store(self, dev):
        data = b"Q" * (2 * CACHE_LINE)
        dev.store(0, data)
        seen = set()
        for img in dev.enumerate_crash_images():
            seen.add((img[0:1] == b"Q", img[CACHE_LINE : CACHE_LINE + 1] == b"Q"))
        # All four combinations reachable: multi-line stores can tear.
        assert len(seen) == 4

    def test_from_image_reboot(self, dev):
        dev.store(0, b"payload")
        dev.persist(0, 7)
        rebooted = PMDevice.from_image(dev.durable_image())
        assert rebooted.load(0, 7) == b"payload"

    def test_crash_tracking_disabled(self):
        dev = PMDevice(4096, crash_tracking=False)
        dev.store(0, b"A")
        assert dev.durable_image()[0:1] == b"A"  # straight to media
        assert dev.dirty_lines() == []


class TestCrashSim:
    """Crash simulation of the device as it stands: ``explore`` with no
    program judges one point, the crash states reachable right now."""

    def test_find_violation(self, dev):
        dev.store(0, b"BODY")
        dev.clwb(0, 4)
        dev.store(CACHE_LINE, b"MARK")
        dev.clwb(CACHE_LINE, 4)

        def judge(rebooted, point):
            marker = rebooted.load(CACHE_LINE, 4) == b"MARK"
            body = rebooted.load(0, 4) == b"BODY"
            return "marker without body" if marker and not body else None

        [point] = explore(dev, None, judge, budget=16)
        assert point.fence is None
        assert point.verdicts == ["marker without body"]

    def test_state_count(self, dev):
        dev.store(0, b"a")
        dev.store(CACHE_LINE, b"b")
        [point] = explore(dev, None, lambda *_: None, budget=16)
        assert point.states == 4


class TestExplore:
    """``repro.pm.crash``: the one image rule and the one driver."""

    @staticmethod
    def fences(dev, n):
        for i in range(n):
            dev.store(i * CACHE_LINE, b"v")
            dev.persist(i * CACHE_LINE, 1)

    def test_images_at_or_under_budget_are_the_enumeration(self, dev):
        dev.store(0, b"a")
        dev.store(CACHE_LINE, b"b")
        every = list(dev.enumerate_crash_images())
        assert len(every) == 4
        assert list(crash_images(dev, 4)) == every == list(crash_images(dev, 99, 1))

    def test_images_over_budget_are_sample_floor_newest(self, dev):
        for i in range(20):
            dev.store(i * CACHE_LINE, b"x")
        imgs = list(crash_images(dev, 8, seed=3))
        assert imgs == [*dev.sample_crash_images(6, seed=3), dev.durable_image(),
                        dev.volatile_image()]
        assert list(crash_images(dev, 8, seed=3)) == imgs

    def test_skip_takes_no_fence_and_judges_only_later_ones(self, dev):
        judged = set()
        points = explore(dev, lambda: self.fences(dev, 3),
                         lambda _d, point: judged.add(point.fence), budget=16, skip=2)
        assert dev.stats.fences == 2
        assert [p.fence for p in points] == [1, 2, 3, None]
        assert judged == {3, None}

    def test_first_stops_judging_at_the_first_verdict(self, dev):
        calls = []
        points = explore(dev, lambda: self.fences(dev, 3),
                         lambda _d, point: calls.append(point.fence) or "bad",
                         budget=16, first=True)
        assert calls == [1]
        assert [p.verdicts for p in points] == [["bad"], [], [], []]
        assert dev.stats.fences == 3

    def test_each_fence_carries_its_site(self, dev):
        class Writer:
            def commit(self):
                dev.persist(0, 1)
                dev.sfence()  # the second fence

        points = explore(dev, Writer().commit, lambda *_: None, budget=16)
        assert [(p.site, p.line) for p in points] == [
            ("Writer.commit", "dev.persist(0, 1)"),
            ("Writer.commit", "dev.sfence()  # the second fence"), ("", "")]

    def test_sfence_is_restored_after_a_program_that_raises(self, dev):
        def program():
            dev.sfence()
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            explore(dev, program, lambda *_: None, budget=16)
        assert "sfence" not in vars(dev)
        assert dev.sfence.__func__ is PMDevice.sfence
