"""The run-logged PMDevice against a per-cache-line reference model.

``PMDevice`` logs one entry per unfenced store and splits it into cache
lines only when a crash image is asked for.  :class:`LineModel` below is the
semantics it must reproduce, written the obvious way — a version list and a
queued index per dirty line, touched line by line on every call.  Random
``store``/``ntstore``/``atomic_store``/``clwb``/``persist``/``sfence``/
``drain``/``load`` sequences are driven against both and every observable is
compared after every step: crash-state space (``line_choices``,
``dirty_lines``, every image when the space is small, seeded samples), both
images and the counters.  The same runs on a 2-member striped ``PMDevice``
against :class:`StripedModel`: the same line model, counted the way members
are — once per member piece, one fence per member stored to.

The last tests hold the one-step paths to the two-step ones: seeded
``store``/``ntstore``/``clwb``/``sfence`` programs, flat and on four
members, against :class:`WalkedDevice` — an ``ntstore`` as ``store`` +
``clwb``, every fence walked — and a device whose coverage counter is
mutated must fail that comparison.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pm.device import CACHE_LINE as CL
from repro.pm.device import PMDevice, PMStats

SIZE = 8 * CL  # small, so stores, flushes and fences overlap all the time


class LineModel:
    """Per-line crash tracking: ``lines[n]`` = contents of line ``n`` since
    its durability floor, ``queued[n]`` = index the next fence persists."""

    def __init__(self, size):
        self.size, self.media, self.stats = size, bytearray(size), PMStats()
        self.lines, self.queued = {}, {}

    def load(self, addr, size):
        self.stats.loads += 1
        self.stats.bytes_loaded += size
        img = bytearray(self.media)
        for n, versions in self.lines.items():
            img[n * CL:(n + 1) * CL] = versions[-1]
        return bytes(img[addr:addr + size])

    def store(self, addr, data):
        self.stats.stores += 1
        self.stats.bytes_stored += len(data)
        for n in range(addr // CL, (addr + len(data) - 1) // CL + 1 if data else 0):
            base = n * CL
            versions = self.lines.setdefault(n, [bytes(self.media[base:base + CL])])
            cur = bytearray(versions[-1])
            lo, hi = max(addr, base), min(addr + len(data), base + CL)
            cur[lo - base:hi - base] = data[lo - addr:hi - addr]
            versions.append(bytes(cur))

    atomic_store = store

    def ntstore(self, addr, data):
        self.stats.ntstores += 1
        self.store(addr, data)
        if data:
            self.clwb(addr, len(data))

    def clwb(self, addr, size=1):
        span = range(addr // CL, (addr + max(size, 1) - 1) // CL + 1)
        self.stats.clwbs += len(span)
        self.queued.update((n, len(self.lines[n]) - 1) for n in span if n in self.lines)

    def sfence(self):
        self.stats.fences += 1
        for n, idx in self.queued.items():
            self.lines[n] = self.lines[n][idx:]
            self.media[n * CL:(n + 1) * CL] = self.lines[n][0]
            if len(self.lines[n]) == 1:
                del self.lines[n]
        self.queued = {}

    def persist(self, addr, size):
        self.clwb(addr, size)
        self.sfence()

    def drain(self):
        self.queued = {n: len(v) - 1 for n, v in self.lines.items()}
        self.sfence()

    def dirty_lines(self):
        return sorted(self.lines)

    def line_choices(self):
        return {n: len(v) for n, v in self.lines.items()}

    def durable_image(self):
        return bytes(self.media)

    def volatile_image(self):
        return self.load(0, self.size)

    def crash_image(self, choices):
        img = bytearray(self.media)
        for n, idx in choices.items():
            img[n * CL:(n + 1) * CL] = self.lines[n][idx]
        return bytes(img)

    def sample_crash_images(self, n, seed=0):
        rng, lines = random.Random(seed), sorted(self.lines)
        for _ in range(n):
            yield self.crash_image(
                {ln: rng.randrange(len(self.lines[ln])) for ln in lines})


class StripedModel(LineModel):
    """The 2-member oracle: contents as :class:`LineModel`, counters
    attributed per member — a load, store or ntstore counts once per member
    piece, and a fence once per member stored to or flushed since the last
    fence (member 0 when none was); ``drain`` fences every member."""

    DEVICES = 2

    def __init__(self, size):
        super().__init__(size)
        self.dev_size, self.dirty = size // self.DEVICES, set()

    def members(self, addr, size):
        """Members ``[addr, addr+size)`` touches (a zero-byte access, one)."""
        last = self.DEVICES - 1
        return range(min(addr // self.dev_size, last),
                     min(max(addr, addr + size - 1) // self.dev_size, last) + 1)

    def load(self, addr, size):
        self.stats.loads += len(self.members(addr, size)) - 1
        return super().load(addr, size)

    def store(self, addr, data):
        members = self.members(addr, len(data))
        self.dirty.update(members)
        self.stats.stores += len(members) - 1
        super().store(addr, data)

    atomic_store = store

    def ntstore(self, addr, data):
        self.stats.ntstores += len(self.members(addr, len(data))) - 1
        super().ntstore(addr, data)

    def clwb(self, addr, size=1):
        self.dirty.update(self.members(addr, max(size, 1)))
        super().clwb(addr, size)

    def sfence(self):
        self.stats.fences += max(len(self.dirty), 1) - 1
        self.dirty = set()
        super().sfence()

    def drain(self):
        self.dirty = set(range(self.DEVICES))
        super().drain()


# Addresses and lengths sit on and next to line boundaries; few distinct byte
# values (0 is the initial content) so that stores which change nothing, and
# equal versions of one line, happen often.
addr = st.builds(lambda line, off: min(line * CL + off, SIZE),
                 st.integers(0, SIZE // CL), st.sampled_from([0, 1, 8, CL - 1]))
length = st.sampled_from([0, 1, 8, CL - 1, CL, CL + 1, 2 * CL, 3 * CL])
payload = st.builds(lambda byte, n: bytes([byte]) * n, st.integers(0, 2), length)
op = st.one_of(
    st.tuples(st.sampled_from(["store", "ntstore"]), addr, payload),
    st.tuples(st.just("atomic_store"), addr, st.sampled_from([1, 2, 4, 8, 16])),
    st.tuples(st.sampled_from(["clwb", "persist", "load"]), addr, length),
    st.tuples(st.sampled_from(["sfence", "drain"])),
)


def apply(dev, kind, a=0, arg=None):
    """One op on one device, clipped into range; returns what it returned."""
    if kind == "atomic_store":
        a = min(a, SIZE - arg) // arg * arg
        return dev.atomic_store(a, bytes([a % 251 + 1]) * arg)
    if kind in ("store", "ntstore"):
        return getattr(dev, kind)(a, arg[:SIZE - a])
    if kind in ("clwb", "persist", "load"):
        a = min(a, SIZE - 1)
        return getattr(dev, kind)(a, min(arg, SIZE - a))
    return getattr(dev, kind)()


def assert_same(dev, ref, seed):
    choices = ref.line_choices()
    assert dev.line_choices() == choices
    assert dev.dirty_lines() == ref.dirty_lines()
    assert dev.durable_image() == ref.durable_image()
    assert dev.volatile_image() == ref.volatile_image()
    assert dev.stats == ref.stats
    assert (list(dev.sample_crash_images(3, seed))
            == list(ref.sample_crash_images(3, seed)))
    lines = sorted(choices)
    picks = list(itertools.product(*(range(choices[ln]) for ln in lines)))
    if len(picks) <= 32:
        assert list(dev.enumerate_crash_images()) == [
            ref.crash_image(dict(zip(lines, pick))) for pick in picks]


FLAT = (lambda: PMDevice(SIZE), lambda: LineModel(SIZE))
ARRAY = (lambda: PMDevice(SIZE, devices=2), lambda: StripedModel(SIZE))


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(op, max_size=25), build=st.sampled_from([FLAT, ARRAY]))
@example(ops=[("ntstore", SIZE, b"")], build=ARRAY)  # zero bytes at the very end
def test_run_log_matches_per_line_model(ops, build):
    dev, ref = build[0](), build[1]()
    for step, args in enumerate(ops):
        assert apply(dev, *args) == apply(ref, *args)
        assert_same(dev, ref, seed=step)


# -- the one-step ntstore and the unwalked fence ----------------------------- #

class WalkedDevice(PMDevice):
    """The oracle for the one-step paths: an ``ntstore`` is ``store`` +
    ``clwb`` with each member piece counted as an ntstore, and every fence
    with a queued range walks the run log."""

    def ntstore(self, addr, data):
        self.store(addr, data)
        pieces = self._pieces(addr, len(data))
        self.stats.ntstores += len(pieces)
        if self.devices > 1:
            for d, _n in pieces:
                self.members[d].stats.ntstores += 1
        if data:
            self.clwb(addr, len(data))

    def sfence(self):
        self._tail = len(self._runs)  # never known covered: always walk
        super().sfence()


class MiscountedDevice(PMDevice):
    """A coverage counter mutated to call every run covered by any clwb."""

    def clwb(self, addr, size=1):
        super().clwb(addr, size)
        self._tail = 0


WIDE = 16 * CL  # four lines per member on four members


def random_program(rng, n):
    """``n`` seeded ops on ``WIDE`` bytes: stores and ntstores of up to
    five lines' worth at line and sub-line offsets, flushes of the last
    store's range or of everything (so that fences often find every run
    covered) or of any range, and fences."""
    ops, last = [], (0, 1)
    for _ in range(n):
        kind = rng.choice(["store", "store", "ntstore", "flush-last",
                           "flush-last", "flush-all", "clwb", "sfence",
                           "sfence"])
        a = rng.randrange(WIDE // CL) * CL + rng.choice([0, 0, 1, 8, CL - 1])
        a = min(a, WIDE - 1)
        if kind == "sfence":
            ops.append(("sfence",))
        elif kind == "flush-last":
            ops.append(("clwb", *last))
        elif kind == "flush-all":
            ops.append(("clwb", 0, WIDE))
        elif kind == "clwb":
            ops.append(("clwb", a, rng.randint(1, min(3 * CL, WIDE - a))))
        else:
            n = rng.randint(0, min(5 * CL, WIDE - a))
            ops.append((kind, a, bytes([rng.randrange(1, 4)]) * n))
            if kind == "store" and n:
                last = (a, n)
    return ops


def differ(dev, ref):
    """Raise AssertionError on the first observable ``dev`` and ``ref``
    disagree on: counters (every member's too), crash-state space, both
    images and every crash image (a seeded sample past 64)."""
    assert dev.stats == ref.stats
    assert [m.stats for m in dev.members] == [m.stats for m in ref.members]
    choices = ref.line_choices()
    assert dev.line_choices() == choices
    assert dev.durable_image() == ref.durable_image()
    assert dev.volatile_image() == ref.volatile_image()
    if math.prod(choices.values()) <= 64:
        assert list(dev.enumerate_crash_images()) == list(ref.enumerate_crash_images())
    else:
        assert (list(dev.sample_crash_images(8, 1))
                == list(ref.sample_crash_images(8, 1)))


def run_against(build, oracle, seed, n=40):
    rng = random.Random(seed)
    devices = rng.choice([1, 4])
    dev, ref = build(WIDE, devices=devices), oracle(WIDE, devices=devices)
    for kind, *args in random_program(rng, n):
        getattr(dev, kind)(*args)
        getattr(ref, kind)(*args)
        differ(dev, ref)


@pytest.mark.parametrize("seed", range(40))
def test_one_step_ntstore_and_unwalked_fence_match_the_walked_oracle(seed):
    run_against(PMDevice, WalkedDevice, seed)


def test_a_miscounted_coverage_counter_fails_the_comparison():
    caught = 0
    for seed in range(40):
        try:
            run_against(MiscountedDevice, WalkedDevice, seed)
        except AssertionError:
            caught += 1
    assert caught >= 10, caught
