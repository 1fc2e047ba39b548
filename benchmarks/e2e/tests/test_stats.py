"""Unit tests for the pure helpers: percentiles, the reference-host
clock, span self time, the tax ladder and the comparison verdicts."""

import pytest

import compare
from harness.host import (
    REF_SPIN_NS, SAMPLE_EVERY_NS, SAMPLE_ITERATIONS, HostClock)
from harness.rungs import Timing
from harness.spans import Recorder, merge
from harness.stats import class_p50s, ladder_taxes, percentile, self_times
from harness.streams import Op


def test_percentile_interpolates_between_ranks():
    values = [40, 10, 30, 20]
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 25
    assert percentile(values, 100) == 40
    assert percentile(values, 99) == pytest.approx(39.7)
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def clock_of(samples):
    """A sealed clock whose samples ``(at, took, slowdown)`` were set by
    hand instead of measured."""
    clock = HostClock()
    clock.at, clock.took, clock._slow = map(list, zip(*samples))
    clock._integrate()
    return clock


def test_host_clock_scales_stretches_and_skips_its_own_samples():
    # Quiet until 1000, then twice as slow; each sample took 100 ns.
    clock = clock_of([(0, 100, 1.0), (1000, 100, 2.0)])
    assert clock.ref_us(100, 600) == pytest.approx(0.5)
    assert clock.ref_us(1100, 1600) == pytest.approx(0.25)
    # An op that straddles a sample is not charged for it.
    assert clock.ref_us(900, 1300) == pytest.approx(0.1 + 0.1)
    assert clock.ref_us(1020, 1080) == 0


def test_host_clock_samples_when_due_and_smooths():
    clock = HostClock()
    clock.tick(0)
    clock.tick(1)                      # not due yet
    assert len(clock.at) == 1
    clock.tick(clock.took[0] + SAMPLE_EVERY_NS)
    assert len(clock.at) == 2
    # One wild sample among steady ones does not move the stretch's median.
    clock.took = [round(SAMPLE_ITERATIONS * REF_SPIN_NS)] * 2
    for j in range(2, 7):
        clock.at.append(clock.at[-1] + SAMPLE_EVERY_NS)
        clock.took.append(clock.took[0] * (9 if j == 4 else 1))
    clock.seal()
    assert clock._slow == [pytest.approx(1.0)] * 7


def test_timing_latencies_by_class_and_op():
    ops = [Op(i, "read" if i % 2 else "meta", "stat") for i in range(4)]
    t = Timing(ops, clock_of([(0, 0, 1.0), (1000, 0, 2.0)]))
    t.starts = [0, 20, 1000, 1020]
    t.ends = [10, 30, 1010, 1090]
    assert t.latencies_us() == pytest.approx([0.01, 0.01, 0.005, 0.035])
    assert t.latencies_us("read") == pytest.approx([0.01, 0.035])
    assert t.by_op()[3] == ("read", pytest.approx(0.035))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 1, -1, 0, 100),
        ("a", 1, 0, 10, 40),
        ("b", 1, 0, 30, 60),      # overlaps a: union is [10, 60)
        ("c", 1, 0, 90, 120),     # clipped to the parent's end
        ("leaf", 1, 1, 15, 20),   # a's child, not root's
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_recorder_nests_and_merges():
    rec = Recorder()
    root = rec.open_op("api.meta", 7)
    inner = rec.wrap(lambda: rec.wrap(lambda: None, "grandchild")(), "child")
    inner()
    rec.close(root, 0, 10)
    names = [(s[0], s[1], s[2]) for s in rec.spans]
    assert names == [("api.meta", 7, -1), ("child", 7, 0),
                     ("grandchild", 7, 1)]
    other = Recorder()
    other.close(other.open_op("wire.read", 0), 0, 5)
    merged = merge([rec, other])
    assert [s[2] for s in merged] == [-1, 0, 1, -1]
    assert len(rec.durations_us("child", clock_of([(0, 0, 1.0)]))) == 1


def test_taxes_telescope_when_every_rung_replays_the_same_ops():
    base = {i: ("read" if i % 2 else "meta", 10.0 + i) for i in range(40)}
    ladder = [("libfs", base)]
    for step, name in enumerate(("api", "server.dispatch", "server.loop"), 1):
        ladder.append((name, {i: (c, us + 7.0 * step * (1 + (c == "meta")))
                              for i, (c, us) in base.items()}))
    taxes = ladder_taxes(ladder)
    top = class_p50s(ladder[-1][1])
    for cls, p50 in class_p50s(base).items():
        total = p50 + sum(v for k, v in taxes.items() if k.endswith(cls))
        assert total == pytest.approx(top[cls])


def test_taxes_use_only_ops_both_rungs_replayed():
    below = {0: ("read", 10.0), 1: ("read", 1000.0), 2: ("tx", 5.0)}
    above = {0: ("read", 13.0)}            # a probe: one op, no tx
    assert ladder_taxes([("api", below), ("server.dispatch", above)]) == {
        "server.dispatch.tax_us.read": 3.0}


@pytest.mark.parametrize("a,b,better,want", [
    ([100, 101, 102, 103], [105, 106, 107, 108], "lower", "pass"),
    ([100, 101, 102, 103], [115, 116, 117, 118], "lower", "regress"),
    ([100, 101, 102, 103], [85, 86, 87, 88], "higher", "regress"),
    ([100, 130, 160, 190], [101, 131, 161, 191], "lower", "unresolved"),
    ([100, 130, 160, 190], [50, 60, 70, 80], "lower", "pass"),
])
def test_compare_verdicts(a, b, better, want):
    assert compare.verdict(a, b, better, 0.10) == want


def test_count_metrics_are_compared_seed_by_seed():
    a = {1: 2.5, 2: 2.75, 3: 3.0}
    assert compare.exact_verdict(a, dict(a), "lower") == (
        "pass (3/3 seeds identical)")
    assert compare.exact_verdict(a, {1: 2.5, 2: 2.5}, "lower") == (
        "pass (1/2 seeds identical)")
    assert compare.exact_verdict(a, {2: 2.75, 3: 3.001}, "lower") == (
        "regress (seeds [3])")
    assert compare.exact_verdict(a, {4: 1.0}, "lower") == "unresolved"
