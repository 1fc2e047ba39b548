"""Unit tests for the call-path profiler (repro.obs.profile)."""

import threading

import pytest

from repro import obs
from repro.obs.profile import (
    PipelineProfile,
    Profiler,
    read_collapsed,
)
from repro.obs.trace import NULL_SPAN


# --------------------------------------------------------------------------- #
# Frames and paths
# --------------------------------------------------------------------------- #


def test_disabled_profiler_is_a_noop():
    p = Profiler()
    assert p.frame("x") is NULL_SPAN
    p.charge(100.0, "y")
    p.charge_path(("a", "b"), 50.0)
    assert p.paths() == {}
    assert p.collapsed() == ""


def test_frames_nest_into_paths_and_self_time():
    p = Profiler()
    p.enabled = True
    with p.frame("outer"):
        with p.frame("inner"):
            pass
    paths = p.paths()
    assert set(paths) == {("outer",), ("outer", "inner")}
    assert paths[("outer", "inner")]["calls"] == 1
    assert paths[("outer",)]["calls"] == 1
    # Self time: the child's wall time is subtracted from the parent's.
    total = p.total("wall")
    assert total == (paths[("outer",)]["wall_ns"]
                     + paths[("outer", "inner")]["wall_ns"])


def test_frame_event_is_accepted_for_span_compat():
    p = Profiler()
    p.enabled = True
    with p.frame("op") as fr:
        fr.event("marker", detail=1)  # must not raise
    assert ("op",) in p.paths()


def test_charge_rides_the_current_frame_stack():
    p = Profiler()
    p.enabled = True
    with p.frame("creat"):
        p.charge(500.0)
        p.charge(100.0, "alloc.refill")
    paths = p.paths()
    assert paths[("creat",)]["sim_ns"] == pytest.approx(500.0)
    assert paths[("creat", "alloc.refill")]["sim_ns"] == pytest.approx(100.0)


def test_charge_outside_any_frame_goes_to_root():
    p = Profiler()
    p.enabled = True
    p.charge(42.0)
    p.charge(8.0, "suffix")
    paths = p.paths()
    assert paths[("(root)",)]["sim_ns"] == pytest.approx(42.0)
    assert paths[("(root)", "suffix")]["sim_ns"] == pytest.approx(8.0)


def test_charge_path_records_calls():
    p = Profiler()
    p.enabled = True
    p.charge_path(("des", "run", "thread0"), 1234.5, calls=7)
    st = p.paths()[("des", "run", "thread0")]
    assert st["sim_ns"] == pytest.approx(1234.5)
    assert st["calls"] == 7


def test_threads_have_independent_stacks():
    p = Profiler()
    p.enabled = True
    inside = threading.Event()
    release = threading.Event()

    def work():
        with p.frame("worker"):
            inside.set()
            release.wait(2.0)

    th = threading.Thread(target=work)
    th.start()
    assert inside.wait(2.0)
    with p.frame("main"):
        p.charge(10.0)
    release.set()
    th.join()
    paths = p.paths()
    # The main frame never nested under the worker's open frame.
    assert ("main",) in paths and ("worker",) in paths
    assert ("worker", "main") not in paths


# --------------------------------------------------------------------------- #
# Collapsed-stack export
# --------------------------------------------------------------------------- #


def test_collapsed_round_trip(tmp_path):
    p = Profiler()
    p.enabled = True
    p.charge_path(("a", "b"), 1000.0)
    p.charge_path(("a", "c"), 250.0)
    p.charge_path(("a",), 10.4)  # rounds to 10
    out = tmp_path / "p.collapsed"
    p.write_collapsed(str(out), weight="sim")
    back = read_collapsed(str(out))
    assert back == {("a", "b"): 1000, ("a", "c"): 250, ("a",): 10}


def test_collapsed_sanitizes_separator_characters(tmp_path):
    p = Profiler()
    p.enabled = True
    p.charge_path(("semi;colon", "with space"), 99.0)
    out = tmp_path / "p.collapsed"
    p.write_collapsed(str(out), weight="sim")
    back = read_collapsed(str(out))
    assert back == {("semi:colon", "with_space"): 99}


def test_collapsed_skips_zero_weight_paths():
    p = Profiler()
    p.enabled = True
    p.charge_path(("zero",), 0.0)
    p.charge_path(("hot",), 5.0)
    assert p.collapsed(weight="sim") == "hot 5"


def test_collapsed_rejects_unknown_weight():
    with pytest.raises(ValueError):
        Profiler().collapsed(weight="cpu")


def test_read_collapsed_merges_duplicate_lines(tmp_path):
    f = tmp_path / "dup.collapsed"
    f.write_text("a;b 10\na;b 5\n\n")
    assert read_collapsed(str(f)) == {("a", "b"): 15}


def test_report_ranks_paths():
    p = Profiler()
    p.enabled = True
    p.charge_path(("cold",), 10.0)
    p.charge_path(("hot",), 1000.0)
    rep = p.report(top=1, weight="sim")
    assert "hot" in rep and "cold" not in rep


# --------------------------------------------------------------------------- #
# Pipeline profiles / critical path
# --------------------------------------------------------------------------- #


def test_pipeline_critical_path_picks_slowest_worker():
    pp = PipelineProfile("verify.w2")
    pp.charge(0, "check_pages", 100.0)
    pp.charge(1, "check_pages", 300.0)
    pp.charge(1, "check_dentries", 50.0)
    pp.charge_serial("commit", 40.0)
    cp = pp.critical_path()
    assert cp["worker"] == "1"
    assert cp["workers"] == 2
    assert cp["total_ns"] == pytest.approx(350.0)
    assert cp["stages"] == {"check_pages": 300.0, "check_dentries": 50.0}
    assert cp["serial_stages"] == {"commit": 40.0}
    assert cp["serial_ns"] == pytest.approx(40.0)
    assert cp["attributed_fraction"] == pytest.approx(1.0)


def test_pipeline_attribution_against_worker_totals():
    pp = PipelineProfile("p")
    pp.charge("w", "stage", 90.0)
    pp.add_worker_total("w", 100.0)  # 10 ns of unexplained overhead
    assert pp.worker_total("w") == pytest.approx(100.0)
    cp = pp.critical_path()
    assert cp["total_ns"] == pytest.approx(100.0)
    assert cp["attributed_fraction"] == pytest.approx(0.9)


def test_verify_pipeline_critical_path_is_attributed():
    """Table 4's ping-pong with 8 verifier workers: the named stages explain
    >= 90 % of the slowest shard, page checks among them, and the chain
    walks and the commit stay serial."""
    from repro.workloads.sharing import run_functional_sharing

    obs.enable(profile=True)
    try:
        run_functional_sharing(file_kib=256, verify_workers=8)
    finally:
        obs.disable()
    cp = obs.profiler.pipelines()["verify.w8"].critical_path()
    assert cp["workers"] == 8, cp
    assert cp["attributed_fraction"] >= 0.9, cp
    assert "check_pages" in cp["stages"], cp
    assert {"enumerate", "commit"} <= set(cp["serial_stages"]), cp


def test_pipeline_empty_critical_path():
    cp = PipelineProfile("empty").critical_path()
    assert cp["worker"] is None
    assert cp["total_ns"] == 0.0
    assert cp["attributed_fraction"] == 1.0
    assert "no charges recorded" in PipelineProfile("empty").report()


def test_pipeline_report_mentions_stages():
    pp = PipelineProfile("fsck.w4")
    pp.charge(2, "scan", 5000.0)
    pp.charge_serial("graph", 100.0)
    rep = pp.report()
    assert "fsck.w4" in rep and "scan" in rep and "graph" in rep


def test_pipeline_serial_only_report_shows_serial_stages():
    pp = PipelineProfile("serial-only")
    pp.charge_serial("commit", 300.0)
    rep = pp.report()
    assert "commit" in rep and "no charges recorded" not in rep


def test_profiler_pipeline_get_or_create():
    p = Profiler()
    p.enabled = True
    a = p.pipeline("alloc")
    assert p.pipeline("alloc") is a
    assert set(p.pipelines()) == {"alloc"}
    p.reset()
    assert p.pipelines() == {}


# --------------------------------------------------------------------------- #
# Facade integration (obs.span / obs.charge / SpanFrame)
# --------------------------------------------------------------------------- #


def test_obs_span_is_frame_when_profiling_only():
    obs.enable(trace=False, profile=True)
    with obs.span("op"):
        obs.charge(77.0)
    obs.disable()
    assert obs.profiler.paths()[("op",)]["sim_ns"] == pytest.approx(77.0)
    assert obs.tracer.events() == []


def test_obs_span_drives_tracer_and_profiler_in_lockstep():
    obs.enable(trace=True, profile=True)
    with obs.span("op", category="syscall") as sp:
        sp.event("marker")
    obs.disable()
    assert ("op",) in obs.profiler.paths()
    names = [e["name"] for e in obs.tracer.events()]
    assert "op" in names and "marker" in names


def test_obs_pipeline_profile_none_when_disabled():
    assert obs.pipeline_profile("verify.w8") is None
    obs.enable(profile=True)
    assert obs.pipeline_profile("verify.w8") is not None
    obs.disable()


def test_verify_pipeline_stages_sum_to_pipeline_time():
    from repro.perf.costmodel import COST

    for pages, dentries, workers in ((65, 0, 8), (16, 12, 4), (1, 1, 1)):
        stages = COST.verify_pipeline_stages(pages, dentries=dentries,
                                             workers=workers)
        assert set(stages) == {"enumerate", "check_pages", "check_dentries",
                               "commit"}
        assert sum(stages.values()) == pytest.approx(
            COST.verify_pipeline_time(pages, dentries=dentries,
                                      workers=workers))
