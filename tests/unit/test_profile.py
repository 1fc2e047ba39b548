"""Unit tests for the call-path profiler (repro.obs.profile)."""

import threading

from repro import obs
from repro.obs.profile import Profiler, read_collapsed
from repro.obs.trace import NULL_SPAN, Span, Tracer


# --------------------------------------------------------------------------- #
# Spans and paths: the profiler reads the tracer's one stack
# --------------------------------------------------------------------------- #


def test_disabled_profiler_is_a_noop():
    p = Profiler()
    assert Tracer(profiler=p).span("x") is NULL_SPAN
    obs.enable()            # metrics only: no span is opened, nothing charged
    assert obs.span("x") is NULL_SPAN
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
    total = obs.profiler.total()
    assert total == (paths[("outer",)]["wall_ns"]
                     + paths[("outer", "inner")]["wall_ns"])


def test_frame_event_is_accepted_for_span_compat():
    obs.enable(profile=True)
    with obs.span("op") as sp:
        sp.event("marker", detail=1)  # must not raise, and traces nothing
    obs.disable()
    assert ("op",) in obs.profiler.paths()
    assert obs.tracer.events() == []


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
        pass
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
    p.span_closed(("a", "b"), 1000)
    p.span_closed(("a", "c"), 250)
    p.span_closed(("a",), 10)
    out = tmp_path / "p.collapsed"
    p.write_collapsed(str(out))
    back = read_collapsed(str(out))
    assert back == {("a", "b"): 1000, ("a", "c"): 250, ("a",): 10}


def test_collapsed_sanitizes_separator_characters(tmp_path):
    p = Profiler()
    p.span_closed(("semi;colon", "with space"), 99)
    out = tmp_path / "p.collapsed"
    p.write_collapsed(str(out))
    back = read_collapsed(str(out))
    assert back == {("semi:colon", "with_space"): 99}


def test_collapsed_skips_zero_weight_paths():
    p = Profiler()
    p.span_closed(("zero",), 0)
    p.span_closed(("hot",), 5)
    assert p.collapsed() == "hot 5"


def test_read_collapsed_merges_duplicate_lines(tmp_path):
    f = tmp_path / "dup.collapsed"
    f.write_text("a;b 10\na;b 5\n\n")
    assert read_collapsed(str(f)) == {("a", "b"): 15}


def test_report_ranks_paths():
    p = Profiler()
    p.span_closed(("cold",), 10)
    p.span_closed(("hot",), 1000)
    rep = p.report(top=1)
    assert "hot" in rep and "cold" not in rep


# --------------------------------------------------------------------------- #
# Facade integration (obs.span)
# --------------------------------------------------------------------------- #


def test_obs_span_is_frame_when_profiling_only():
    obs.enable(trace=False, profile=True)
    with obs.span("op") as sp:
        pass
    obs.disable()
    assert type(sp) is Span
    assert obs.profiler.paths()[("op",)]["calls"] == 1
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
