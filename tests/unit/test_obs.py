"""Unit tests for the observability layer: tracer, metrics, facade."""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
    format_snapshot,
    render_name,
)
from repro.obs.trace import NULL_SPAN, Tracer, read_jsonl


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #


def test_tracer_disabled_returns_shared_null_span():
    t = Tracer()
    sp = t.span("anything")
    assert sp is NULL_SPAN
    with sp as inner:
        inner.event("ignored")
    assert t.events() == []
    t.instant("also-ignored")
    assert t.events() == []


def test_tracer_records_nested_spans_with_depth_and_parent():
    t = Tracer()
    t.enabled = True
    with t.span("outer", "syscall"):
        with t.span("inner", "kernel"):
            pass
    evs = t.events()
    # Inner exits first, so it is appended first.
    assert [e["name"] for e in evs] == ["inner", "outer"]
    inner, outer = evs
    assert inner["depth"] == 1 and inner["parent"] == "outer"
    assert outer["depth"] == 0 and outer["parent"] is None
    assert inner["dur_ns"] >= 0 and outer["dur_ns"] >= inner["dur_ns"]
    assert inner["ts_ns"] >= outer["ts_ns"]


def test_tracer_span_records_exception_name():
    t = Tracer()
    t.enabled = True
    with pytest.raises(ValueError):
        with t.span("boom"):
            raise ValueError("nope")
    (ev,) = t.events()
    assert ev["args"]["error"] == "ValueError"


def test_tracer_threads_get_distinct_small_tids():
    t = Tracer()
    t.enabled = True
    # Keep all workers alive at once: Python reuses thread idents after a
    # thread exits, which would fold sequential workers onto one tid.
    barrier = threading.Barrier(3)

    def work():
        barrier.wait(2.0)
        with t.span("op"):
            pass
        barrier.wait(2.0)

    threads = [threading.Thread(target=work) for _ in range(3)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    with t.span("main-op"):
        pass
    tids = {e["tid"] for e in t.events()}
    assert len(tids) == 4
    assert tids <= set(range(4))


def test_tracer_thread_nesting_is_isolated():
    """Spans on one thread must not become parents of another thread's."""
    t = Tracer()
    t.enabled = True
    inside = threading.Event()
    release = threading.Event()

    def work():
        with t.span("worker-op"):
            inside.set()
            release.wait(2.0)

    th = threading.Thread(target=work)
    th.start()
    assert inside.wait(2.0)
    with t.span("main-op"):
        pass
    release.set()
    th.join()
    by_name = {e["name"]: e for e in t.events()}
    assert by_name["main-op"]["depth"] == 0
    assert by_name["main-op"]["parent"] is None
    assert by_name["worker-op"]["depth"] == 0


def test_tracer_bounded_buffer_counts_drops():
    t = Tracer(max_events=2)
    t.enabled = True
    for i in range(5):
        t.instant(f"e{i}")
    assert len(t.events()) == 2
    assert t.dropped == 3


def test_jsonl_round_trip(tmp_path):
    t = Tracer()
    t.enabled = True
    with t.span("op", "syscall", path="/a/b"):
        t.instant("marker", "kernel")
    path = tmp_path / "trace.jsonl"
    t.write_jsonl(str(path))
    back = read_jsonl(str(path))
    assert back == t.events()


def test_chrome_export_shape(tmp_path):
    t = Tracer()
    t.enabled = True
    with t.span("creat", "syscall"):
        t.instant("kernel.mmap", "kernel")
    path = tmp_path / "trace.json"
    t.write_chrome(str(path), process_name="unit")
    doc = json.loads(path.read_text())
    evs = doc["traceEvents"]
    assert evs[0]["ph"] == "M" and evs[0]["args"]["name"] == "unit"
    complete = [e for e in evs if e["ph"] == "X"]
    instants = [e for e in evs if e["ph"] == "i"]
    assert len(complete) == 1 and complete[0]["name"] == "creat"
    assert "dur" in complete[0] and complete[0]["dur"] >= 0
    assert len(instants) == 1 and instants[0]["s"] == "t"
    # Timestamps are microseconds (floats), pid always present.
    assert all("ts" in e and "pid" in e for e in evs[1:])


def test_tracer_reset_clears_everything():
    t = Tracer(max_events=1)
    t.enabled = True
    t.instant("a")
    t.instant("b")
    assert t.dropped == 1
    t.reset()
    assert t.events() == [] and t.dropped == 0


# --------------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------------- #


def test_histogram_bucket_boundaries_are_inclusive_upper_edges():
    h = Histogram("h", bounds=(10, 20, 30))
    for v in (5, 10, 11, 20, 21, 30, 31, 1000):
        h.observe(v)
    # buckets: <=10, <=20, <=30, overflow
    assert h.counts == [2, 2, 2, 2]
    assert h.count == 8
    assert h.min == 5 and h.max == 1000


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(30, 10))
    with pytest.raises(ValueError):
        Histogram("h", bounds=())


def test_histogram_percentiles_single_observation():
    h = Histogram("h")
    h.observe(4_321)
    # Min/max clamping: one observation answers every percentile exactly.
    assert h.percentile(50) == pytest.approx(4_321)
    assert h.percentile(99) == pytest.approx(4_321)


def test_histogram_percentile_interpolation():
    h = Histogram("h", bounds=(100, 200))
    for _ in range(100):
        h.observe(150)  # all in the (100, 200] bucket
    # p50 target is the 50th of 100 observations, halfway through the
    # bucket: 100 + 0.5 * (200 - 100) = 150.
    assert h.percentile(50) == pytest.approx(150.0)
    # The upper edge is clamped by the observed max, so p100 reports the
    # true maximum rather than the bucket edge.
    assert h.percentile(100) == pytest.approx(150.0)


def test_histogram_percentile_bounds_checked():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.percentile(0)
    with pytest.raises(ValueError):
        h.percentile(101)
    assert h.percentile(50) == 0.0  # empty → 0


def test_histogram_merge_is_exact():
    a = Histogram("a", bounds=(10, 20))
    b = Histogram("b", bounds=(10, 20))
    for v in (1, 15):
        a.observe(v)
    for v in (18, 99):
        b.observe(v)
    a.merge(b)
    assert a.count == 4
    assert a.counts == [1, 2, 1]
    assert a.min == 1 and a.max == 99
    assert a.total == pytest.approx(1 + 15 + 18 + 99)


def test_histogram_merge_requires_same_bounds():
    a = Histogram("a", bounds=(10,))
    b = Histogram("b", bounds=(10, 20))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_summary_keys():
    h = Histogram("h")
    assert h.summary()["count"] == 0
    h.observe(1000)
    s = h.summary()
    assert set(s) >= {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}
    assert s["mean"] == pytest.approx(1000)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


def test_counter_labels_and_rollup():
    reg = MetricsRegistry()
    reg.counter("kernel.crossings", reason="mmap").inc(3)
    reg.counter("kernel.crossings", reason="verification").inc(2)
    snap = reg.snapshot()["counters"]
    assert snap["kernel.crossings{reason=mmap}"] == 3
    assert snap["kernel.crossings{reason=verification}"] == 2
    assert snap["kernel.crossings"] == 5
    assert reg.counter_total("kernel.crossings") == 5
    assert reg.counter_total("kernel.crossings", reason="mmap") == 3
    assert reg.counter_total("kernel.crossings", reason="nope") == 0


def test_counter_label_named_name_is_allowed():
    """`name` must be usable as a label key (failpoints use it)."""
    reg = MetricsRegistry()
    reg.counter("failpoints.hit", name="dir.write_mid").inc()
    snap = reg.snapshot()["counters"]
    assert snap["failpoints.hit{name=dir.write_mid}"] == 1


def test_counter_is_monotonic():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_same_labels_same_instance():
    reg = MetricsRegistry()
    assert reg.counter("c", a=1, b=2) is reg.counter("c", b=2, a=1)
    assert reg.counter("c") is not reg.counter("c", a=1)


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("g")
    g.set(1.5)
    g.add(0.5)
    assert reg.snapshot()["gauges"]["g"] == pytest.approx(2.0)


def test_registry_reset():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1)
    reg.histogram("h").observe(1)
    reg.reset()
    snap = reg.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


def test_default_buckets_cover_sim_latency_range():
    assert LATENCY_BUCKETS_NS[0] <= 250
    assert LATENCY_BUCKETS_NS[-1] >= 100_000_000
    assert list(LATENCY_BUCKETS_NS) == sorted(LATENCY_BUCKETS_NS)


def test_render_name():
    assert render_name("x", ()) == "x"
    assert render_name("x", (("a", "1"),)) == "x{a=1}"


def test_format_snapshot():
    reg = MetricsRegistry()
    reg.counter("kernel.crossings", reason="mmap").inc(7)
    reg.gauge("run.threads").set(4)
    reg.histogram("lat").observe(1234)
    text = format_snapshot(reg.snapshot(), title="unit")
    assert "== metrics: unit ==" in text
    assert "kernel.crossings{reason=mmap}" in text
    assert "p95=" in text


# --------------------------------------------------------------------------- #
# Facade (repro.obs)
# --------------------------------------------------------------------------- #


def test_facade_disabled_records_nothing():
    assert not obs.enabled
    obs.count("x")
    obs.kernel_crossing("mmap")
    obs.lock_wait("spin", 100)
    assert obs.span("op") is NULL_SPAN
    snap = obs.metrics.snapshot()
    assert snap["counters"] == {}


def test_facade_enable_disable_round_trip():
    obs.enable(trace=True)
    assert obs.is_enabled() and obs.tracer.enabled
    obs.count("x", 2)
    obs.kernel_crossing("verification")
    with obs.span("op"):
        pass
    obs.disable()
    snap = obs.metrics.snapshot()["counters"]
    assert snap["x"] == 2
    assert snap["kernel.crossings{reason=verification}"] == 1
    assert [e["name"] for e in obs.tracer.events() if e["ph"] == "X"] == ["op"]
    # Disabled again: nothing further is recorded.
    obs.count("x", 5)
    assert obs.metrics.snapshot()["counters"]["x"] == 2


def test_facade_metrics_only_mode_skips_spans():
    obs.enable(trace=False)
    assert obs.span("op") is NULL_SPAN
    obs.kernel_crossing("mmap")
    obs.disable()
    assert obs.tracer.events() == []
    assert obs.metrics.counter_total("kernel.crossings") == 1


def test_stats_diff_and_publish_stats():
    from repro.pm.device import PMStats

    now = PMStats(stores=10, loads=4, fences=3)
    then = PMStats(stores=4, loads=1, fences=1)
    d = obs.stats_diff(now, then)
    assert (d.stores, d.loads, d.fences) == (6, 3, 2)
    with pytest.raises(TypeError):
        obs.stats_diff(now, object())
    obs.publish_stats("pm", d)
    snap = obs.metrics.snapshot()["counters"]
    assert snap["pm.stores"] == 6 and snap["pm.fences"] == 2


def test_histogram_percentile_overflow_bucket_uses_observed_max():
    h = Histogram("h", bounds=(10, 20))
    for v in (500, 600, 700):   # everything lands in the overflow bucket
        h.observe(v)
    # No finite upper edge exists; percentiles interpolate between the last
    # bound and the observed max, never above it.
    assert 20 <= h.percentile(50) <= 700
    assert h.percentile(99) <= 700


def test_histogram_percentile_zero_valued_samples():
    h = Histogram("h", bounds=(10, 20))
    for _ in range(5):
        h.observe(0)
    # min == max == 0 must short-circuit to the exact value (0 is falsy —
    # a naive `min or default` would misreport).
    assert h.percentile(50) == 0.0
    assert h.percentile(99) == 0.0


def test_histogram_percentile_constant_stream_is_exact():
    h = Histogram("h", bounds=(100, 200, 300))
    for _ in range(1000):
        h.observe(250)
    for q in (1, 50, 95, 99, 100):
        assert h.percentile(q) == pytest.approx(250.0)


def test_histogram_bucket_counts_view():
    h = Histogram("h", bounds=(10, 20))
    for v in (5, 15, 99):
        h.observe(v)
    bounds, counts, count, total = h.bucket_counts()
    assert list(bounds) == [10, 20]
    assert counts == [1, 1, 1]
    assert count == 3 and total == pytest.approx(119)


def test_labeled_histograms_roll_up_to_base_name():
    reg = MetricsRegistry()
    reg.histogram("libfs.syscall.ns", app_id="a").observe(1000)
    reg.histogram("libfs.syscall.ns", app_id="b").observe(3000)
    snap = reg.snapshot()["histograms"]
    assert snap["libfs.syscall.ns{app_id=a}"]["count"] == 1
    assert snap["libfs.syscall.ns{app_id=b}"]["count"] == 1
    # The synthesized base-name summary merges both label sets exactly.
    agg = snap["libfs.syscall.ns"]
    assert agg["count"] == 2
    assert agg["min"] == 1000 and agg["max"] == 3000


def test_histogram_rollup_skips_mixed_bounds():
    reg = MetricsRegistry()
    reg.histogram("h", bounds=(10,), app_id="a").observe(1)
    reg.histogram("h", bounds=(10, 20), app_id="b").observe(1)
    snap = reg.snapshot()["histograms"]
    assert "h" not in snap  # merge would be lossy; no aggregate emitted
    assert snap["h{app_id=a}"]["count"] == 1


def test_registry_thread_safety_under_concurrent_label_creation():
    reg = MetricsRegistry()
    nthreads, per_thread = 8, 64
    barrier = threading.Barrier(nthreads)

    def work(tid: int) -> None:
        barrier.wait(5.0)
        for i in range(per_thread):
            # Everyone hammers the same base name with fresh + shared labels.
            reg.counter("c", tid=tid, i=i % 4).inc()
            reg.counter("c").inc()
            reg.histogram("h", tid=tid).observe(i + 1)

    threads = [threading.Thread(target=work, args=(t,))
               for t in range(nthreads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    total = nthreads * per_thread
    assert reg.counter_total("c") == 2 * total
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 2 * total
    assert snap["histograms"]["h"]["count"] == total
    per_label = [v for k, v in snap["counters"].items()
                 if k.startswith("c{") and "tid=" in k]
    assert sum(per_label) == total


def test_counter_total_while_another_thread_adds_label_sets():
    """``counter_total`` reads a consistent list of counters: it used to
    iterate the live dict and raise ``dictionary changed size during
    iteration`` as soon as another thread created a label set."""
    reg = MetricsRegistry()
    n = 4000

    def create() -> None:
        for i in range(n):
            reg.counter("x", k=i).inc()

    th = threading.Thread(target=create)
    th.start()
    try:
        while th.is_alive():
            reg.counter_total("x")
            time.sleep(0)  # let the creator run between two reads
    finally:
        th.join(10.0)
    assert not th.is_alive()
    assert reg.counter_total("x") == n


# --------------------------------------------------------------------------- #
# Ambient dimensional context
# --------------------------------------------------------------------------- #


def test_scoped_context_labels_counters_and_restores():
    obs.enable()
    with obs.scoped_context(app_id="app1", volume="vol0"):
        obs.count("x")
        assert obs.context_labels() == {"app_id": "app1", "volume": "vol0"}
        with obs.scoped_context(volume="vol1"):
            obs.count("x")   # inner override
        assert obs.context_labels()["volume"] == "vol0"
    obs.count("x")           # outside any context
    obs.disable()
    c = obs.metrics.snapshot()["counters"]
    assert c["x{app_id=app1,volume=vol0}"] == 1
    assert c["x{app_id=app1,volume=vol1}"] == 1
    assert c["x"] == 3       # rollup: 2 labeled + 1 bare


def test_explicit_labels_win_over_ambient():
    obs.enable()
    with obs.scoped_context(op="ambient", app_id="a"):
        obs.count("y", op="explicit")
    obs.disable()
    c = obs.metrics.snapshot()["counters"]
    assert c["y{app_id=a,op=explicit}"] == 1


def test_set_and_clear_context():
    obs.set_context(app_id="z")
    assert obs.context_labels() == {"app_id": "z"}
    obs.set_context(app_id=None, volume="v")
    assert obs.context_labels() == {"volume": "v"}
    obs.clear_context()
    assert obs.context_labels() == {}


def test_context_is_thread_local():
    obs.set_context(app_id="main")
    seen = {}

    def work():
        seen["worker"] = obs.context_labels()

    th = threading.Thread(target=work)
    th.start()
    th.join()
    obs.clear_context()
    assert seen["worker"] == {}


def test_pmstats_snapshot_and_diff():
    """A stats record's copy is ``dataclasses.replace`` and its delta is
    ``obs.stats_diff``: no record carries its own."""
    import dataclasses

    from repro.pm.device import PMStats

    s = PMStats(stores=5, fences=2)
    snap = dataclasses.replace(s)
    assert snap == s and snap is not s
    s.stores += 3
    delta = obs.stats_diff(s, snap)
    assert delta.stores == 3 and delta.fences == 0
    assert not hasattr(s, "snapshot") and not hasattr(s, "diff")
