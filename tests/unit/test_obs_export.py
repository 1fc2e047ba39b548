"""Unit tests for the exporters (Prometheus, top) and the regression gate."""

import pytest

from repro.obs import regress
from repro.obs.export import render_top, to_prometheus
from repro.obs.metrics import MetricsRegistry


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #


def test_prometheus_counter_rendering():
    reg = MetricsRegistry()
    reg.counter("kernel.crossings", reason="mmap").inc(3)
    reg.counter("kernel.crossings", reason="verification").inc(2)
    text = to_prometheus(reg)
    assert "# TYPE repro_kernel_crossings_total counter" in text
    assert 'repro_kernel_crossings_total{reason="mmap"} 3' in text
    assert 'repro_kernel_crossings_total{reason="verification"} 2' in text
    # One TYPE line per family, not per label set.
    assert text.count("# TYPE repro_kernel_crossings_total") == 1
    assert text.endswith("\n")


def test_prometheus_gauge_and_name_sanitization():
    reg = MetricsRegistry()
    reg.gauge("des.mops", fs="arckfs+").set(1.5)
    text = to_prometheus(reg)
    assert "# TYPE repro_des_mops gauge" in text
    assert 'repro_des_mops{fs="arckfs+"} 1.5' in text


def test_prometheus_histogram_cumulative_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat", bounds=(10, 20))
    for v in (5, 15, 99):
        h.observe(v)
    text = to_prometheus(reg)
    assert 'repro_lat_bucket{le="10"} 1' in text
    assert 'repro_lat_bucket{le="20"} 2' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_sum 119" in text
    assert "repro_lat_count 3" in text


def test_prometheus_label_value_escaping():
    reg = MetricsRegistry()
    reg.counter("c", path='a"b\\c').inc()
    text = to_prometheus(reg)
    assert 'path="a\\"b\\\\c"' in text


def test_prometheus_empty_registry_is_empty_string():
    assert to_prometheus(MetricsRegistry()) == ""


def test_prometheus_custom_prefix_and_leading_digit():
    reg = MetricsRegistry()
    reg.counter("4k.writes").inc()
    text = to_prometheus(reg, prefix="")
    assert "_4k_writes_total 1" in text


# --------------------------------------------------------------------------- #
# render_top
# --------------------------------------------------------------------------- #


def _snap(counters=None, gauges=None, histograms=None):
    return {"counters": counters or {}, "gauges": gauges or {},
            "histograms": histograms or {}}


def test_render_top_ranks_by_rate():
    prev = _snap(counters={"slow": 100, "fast": 100})
    cur = _snap(counters={"slow": 101, "fast": 200})
    out = render_top(cur, prev, 1.0, title="unit")
    assert "repro top: unit" in out
    lines = out.splitlines()
    assert lines.index([ln for ln in lines if "fast" in ln][0]) < \
        lines.index([ln for ln in lines if "slow" in ln][0])


def test_render_top_first_frame_and_sections():
    cur = _snap(
        counters={"c": 5},
        gauges={"run.threads": 4},
        histograms={"lat": {"count": 2, "p50": 10.0, "p95": 20.0,
                            "p99": 30.0}},
    )
    out = render_top(cur, None, 0.5)
    assert "c" in out and "run.threads" in out and "lat" in out
    assert "p95" in out


# --------------------------------------------------------------------------- #
# Regression gate
# --------------------------------------------------------------------------- #


SNAP = {
    "counters": {"kernel.crossings": 10, "pm.fences": 100},
    "gauges": {"run.wall_ns": 12345, "des.utilization": 0.5},
    "histograms": {"lat": {"count": 4, "sum": 40, "min": 5, "max": 20,
                           "mean": 10.0, "p50": 9.0, "p95": 19.0,
                           "p99": 20.0}},
}


def test_flatten_dotted_names():
    flat = regress.flatten(SNAP)
    assert flat["counters.kernel.crossings"] == 10
    assert flat["gauges.des.utilization"] == 0.5
    assert flat["histograms.lat.count"] == 4
    assert flat["histograms.lat.p95"] == 19.0


def test_make_baseline_ignores_wall_derived_series():
    doc = regress.make_baseline(SNAP, source="unit")
    assert doc["kind"] == "repro-metrics-baseline"
    m = doc["metrics"]
    assert "counters.kernel.crossings" in m
    assert "histograms.lat.count" in m
    # Wall-derived series are ignored by default.
    for gone in ("histograms.lat.p50", "histograms.lat.mean",
                 "histograms.lat.sum", "gauges.run.wall_ns"):
        assert gone not in m


def test_compare_within_band_passes():
    doc = regress.make_baseline(SNAP, rtol=0.05)
    snap = {"counters": {"kernel.crossings": 10, "pm.fences": 104},
            "gauges": {"des.utilization": 0.51},
            "histograms": {"lat": {"count": 4}}}
    assert regress.compare(snap, doc) == []


def test_compare_out_of_band_and_missing_fail():
    doc = regress.make_baseline(SNAP, rtol=0.05)
    snap = {"counters": {"kernel.crossings": 20},  # 2x: out of band
            "gauges": {},                          # des.utilization missing
            "histograms": {"lat": {"count": 4}}}
    violations = regress.compare(snap, doc)
    by_metric = {v.metric: v for v in violations}
    v = by_metric["counters.kernel.crossings"]
    assert v.current == 20 and v.lo == pytest.approx(9.5)
    assert "outside" in str(v)
    miss = by_metric["gauges.des.utilization"]
    assert miss.current is None and "missing" in str(miss)
    assert "counters.pm.fences" in by_metric


def test_compare_new_metrics_are_not_violations():
    doc = regress.make_baseline(SNAP)
    snap = {"counters": {**SNAP["counters"], "brand.new": 7},
            "gauges": dict(SNAP["gauges"]),
            "histograms": dict(SNAP["histograms"])}
    assert regress.compare(snap, doc) == []
    assert regress.new_metrics(snap, doc) == ["counters.brand.new"]


def test_compare_per_metric_overrides():
    doc = regress.make_baseline(
        SNAP, rtol=0.0,
        overrides={"counters.pm.fences": {"rtol": 0.5}})
    snap = {"counters": {"kernel.crossings": 10, "pm.fences": 140},
            "gauges": {"des.utilization": 0.5},
            "histograms": {"lat": {"count": 4}}}
    # fences moved 40% — allowed by its override; everything else exact.
    assert regress.compare(snap, doc) == []
    snap["counters"]["kernel.crossings"] = 11
    assert len(regress.compare(snap, doc)) == 1


def test_compare_atol_band():
    doc = regress.make_baseline(SNAP, rtol=0.0, atol=2.0)
    snap = {"counters": {"kernel.crossings": 12, "pm.fences": 102},
            "gauges": {"des.utilization": 0.5},
            "histograms": {"lat": {"count": 4}}}
    assert regress.compare(snap, doc) == []


def test_baseline_file_round_trip(tmp_path):
    doc = regress.make_baseline(SNAP, source="unit")
    path = tmp_path / "base.metrics.json"
    regress.write_baseline(str(path), doc)
    back = regress.load_baseline(str(path))
    assert back["metrics"] == doc["metrics"]
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"not": "a baseline"}')
    with pytest.raises(ValueError):
        regress.load_baseline(str(garbage))


def test_load_sidecar_accepts_wrapped_and_bare(tmp_path):
    import json

    wrapped = tmp_path / "w.metrics.json"
    wrapped.write_text(json.dumps({"bench": "b", "metrics": SNAP}))
    bare = tmp_path / "b.metrics.json"
    bare.write_text(json.dumps(SNAP))
    assert regress.load_sidecar(str(wrapped)) == SNAP
    assert regress.load_sidecar(str(bare)) == SNAP


def test_read_path_counters_export_with_session_labels():
    """The zero-crossing read-path counters (`readcache.*`,
    `readpath.crossings_avoided`) flow end-to-end: counted inside the
    kernel/LibFS, tagged with the Session facade's ambient
    ``{app_id, volume}`` labels, rendered by the Prometheus exporter."""
    from repro import obs
    from repro.api import Volume, VolumeConfig

    obs.reset()
    obs.enable()
    try:
        vol = Volume.create(16 * 1024 * 1024, VolumeConfig(
            inode_count=128, name="vexp"))
        s1 = vol.session("writer")
        s2 = vol.session("reader")
        s1.write_file("/f", b"payload" * 64)
        s1.release_all()  # verified release publishes /f
        fd = s2.open("/f")
        assert s2.pread(fd, 7, 0) == b"payload"
        s2.close(fd)
        counters = obs.metrics.snapshot()["counters"]
        text = to_prometheus(obs.metrics)
    finally:
        obs.disable()
        obs.reset()
    assert counters["readcache.publishes{app_id=writer,volume=vexp}"] == 1
    assert counters["readcache.hits{app_id=reader,volume=vexp}"] >= 1
    assert counters["readpath.crossings_avoided{app_id=reader,volume=vexp}"] >= 1
    assert ('repro_readcache_publishes_total'
            '{app_id="writer",volume="vexp"} 1') in text
    assert ('repro_readpath_crossings_avoided_total'
            '{app_id="reader",volume="vexp"}') in text
