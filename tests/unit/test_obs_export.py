"""Unit tests for the exporters (Prometheus, top)."""

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
