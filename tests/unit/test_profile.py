"""Unit tests for the call-path profiler (repro.obs.profile)."""

import threading

import pytest

from repro import obs
from repro.obs.profile import (
    PipelineProfile,
    Profiler,
    read_collapsed,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer


# --------------------------------------------------------------------------- #
# Spans and paths: the profiler reads the tracer's one stack
# --------------------------------------------------------------------------- #


def test_disabled_profiler_is_a_noop():
    p = Profiler()
    assert Tracer(profiler=p).span("x") is NULL_SPAN
    p.charge_path(("a", "b"), 50.0)
    obs.enable()            # metrics only: no span is opened, nothing charged
    assert obs.span("x") is NULL_SPAN
    obs.charge(100.0, "y")
    obs.disable()
    assert p.paths() == {} and obs.profiler.paths() == {}
    assert p.collapsed() == ""


def test_frames_nest_into_paths_and_self_time():
    obs.enable(profile=True)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    obs.disable()
    paths = obs.profiler.paths()
    assert set(paths) == {("outer",), ("outer", "inner")}
    assert paths[("outer", "inner")]["calls"] == 1
    assert paths[("outer",)]["calls"] == 1
    # Self time: the child's wall time is subtracted from the parent's.
    total = obs.profiler.total("wall")
    assert total == (paths[("outer",)]["wall_ns"]
                     + paths[("outer", "inner")]["wall_ns"])


def test_frame_event_is_accepted_for_span_compat():
    obs.enable(profile=True)
    with obs.span("op") as sp:
        sp.event("marker", detail=1)  # must not raise, and traces nothing
    obs.disable()
    assert ("op",) in obs.profiler.paths()
    assert obs.tracer.events() == []


def test_charge_rides_the_current_frame_stack():
    obs.enable(profile=True)
    with obs.span("creat"):
        obs.charge(500.0)
        obs.charge(100.0, "alloc.refill")
    obs.disable()
    paths = obs.profiler.paths()
    assert paths[("creat",)]["sim_ns"] == pytest.approx(500.0)
    assert paths[("creat", "alloc.refill")]["sim_ns"] == pytest.approx(100.0)


def test_charge_outside_any_frame_goes_to_root():
    obs.enable(profile=True)
    obs.charge(42.0)
    obs.charge(8.0, "suffix")
    obs.disable()
    paths = obs.profiler.paths()
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
    obs.enable(profile=True)
    inside = threading.Event()
    release = threading.Event()

    def work():
        with obs.span("worker"):
            inside.set()
            release.wait(2.0)

    th = threading.Thread(target=work)
    th.start()
    assert inside.wait(2.0)
    with obs.span("main"):
        obs.charge(10.0)
    release.set()
    th.join()
    obs.disable()
    paths = obs.profiler.paths()
    # The main span never nested under the worker's open span.
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
    pp = PipelineProfile("alloc")
    pp.charge("t0", "refill", 100.0)
    pp.charge("t1", "refill", 300.0)
    pp.charge("t1", "steal", 50.0)
    cp = pp.critical_path()
    assert cp["worker"] == "t1"
    assert cp["workers"] == 2
    assert cp["total_ns"] == pytest.approx(350.0)
    assert cp["stages"] == {"refill": 300.0, "steal": 50.0}
    assert cp["attributed_fraction"] == pytest.approx(1.0)


def test_pipeline_attribution_against_worker_totals():
    pp = PipelineProfile("p")
    pp.charge("w", "stage", 90.0)
    pp.add_worker_total("w", 100.0)  # 10 ns of unexplained overhead
    assert pp.worker_total("w") == pytest.approx(100.0)
    cp = pp.critical_path()
    assert cp["total_ns"] == pytest.approx(100.0)
    assert cp["attributed_fraction"] == pytest.approx(0.9)


def test_profiled_ping_pong_charges_verify_stages():
    """Table 4's ping-pong, profiled: each verification charges simulated
    ns to its chain walk, its page checks and its commit, under its
    ``verify.pipeline`` span, and no pipeline profile models workers."""
    from repro.workloads.sharing import run_functional_sharing

    obs.enable(profile=True)
    try:
        run_functional_sharing(file_kib=256)
    finally:
        obs.disable()
    charged = {}
    for path, st in obs.profiler.paths().items():
        if "verify.pipeline" in path:
            charged[path[-1]] = charged.get(path[-1], 0.0) + st["sim_ns"]
    for stage in ("enumerate", "check_pages", "commit"):
        assert charged.get(stage, 0.0) > 0, charged
    assert not [n for n in obs.profiler.pipelines() if n.startswith("verify")]


def test_pipeline_empty_critical_path():
    cp = PipelineProfile("empty").critical_path()
    assert cp["worker"] is None
    assert cp["total_ns"] == 0.0
    assert cp["attributed_fraction"] == 1.0
    assert "no charges recorded" in PipelineProfile("empty").report()


def test_pipeline_report_mentions_stages():
    pp = PipelineProfile("alloc")
    pp.charge("t2", "refill", 5000.0)
    pp.charge("t2", "steal", 100.0)
    rep = pp.report()
    assert "alloc" in rep and "refill" in rep and "steal" in rep


def test_profiler_pipeline_get_or_create():
    p = Profiler()
    p.enabled = True
    a = p.pipeline("alloc")
    assert p.pipeline("alloc") is a
    assert set(p.pipelines()) == {"alloc"}
    p.reset()
    assert p.pipelines() == {}


# --------------------------------------------------------------------------- #
# Facade integration (obs.span / obs.charge)
# --------------------------------------------------------------------------- #


def test_obs_span_is_frame_when_profiling_only():
    obs.enable(trace=False, profile=True)
    with obs.span("op") as sp:
        obs.charge(77.0)
    obs.disable()
    assert type(sp) is Span
    assert obs.profiler.paths()[("op",)]["sim_ns"] == pytest.approx(77.0)
    assert obs.tracer.events() == []


def test_obs_span_drives_tracer_and_profiler_in_lockstep():
    """One span serves both collectors: it closes once, as one trace event
    and one call on its path, with the self time its event's duration
    leaves after its child's."""
    obs.enable(trace=True, profile=True)
    with obs.span("op", category="syscall") as sp:
        sp.event("marker")
        with obs.span("child"):
            pass
    obs.disable()
    assert type(sp) is Span
    paths = obs.profiler.paths()
    assert paths[("op",)]["calls"] == paths[("op", "child")]["calls"] == 1
    events = {e["name"]: e for e in obs.tracer.events()}
    assert set(events) == {"op", "marker", "child"}
    assert events["child"]["parent"] == "op" and events["child"]["depth"] == 1
    assert paths[("op",)]["wall_ns"] == (events["op"]["dur_ns"]
                                         - events["child"]["dur_ns"])


def test_obs_pipeline_profile_none_when_disabled():
    assert obs.pipeline_profile("alloc") is None
    obs.enable(profile=True)
    assert obs.pipeline_profile("alloc") is not None
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
