"""Determinism self-test: a seed fixes the op stream, and the op stream
fixes every count the benchmark reports."""

import json
from collections import Counter

import pytest

import run
from harness import check
from harness.model import user_bytes
from harness.rungs import ApiRung
from harness.streams import (
    CLASSES, WORKLOADS, digest, generate, payload_pool)

SESSION_WORKLOADS = [n for n, w in WORKLOADS.items() if not w.wire]


def _streams(w, seed, count):
    return [generate(w, seed, t, count) for t in range(w.tenants)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_stream(name):
    w = WORKLOADS[name]
    pool = payload_pool(5)
    one = digest(_streams(w, 5, 3000), pool)
    assert one == digest(_streams(w, 5, 3000), payload_pool(5))
    assert one != digest(_streams(w, 6, 3000), payload_pool(6))
    # A traced run replays a prefix: shorter streams are prefixes.
    assert generate(w, 5, 0, 500) == generate(w, 5, 0, 3000)[:500]
    if w.tenants > 1:
        assert generate(w, 5, 0, 500) != generate(w, 5, 1, 500)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_class_has_its_share(name):
    w = WORKLOADS[name]
    assert sum(w.mix.values()) == pytest.approx(1.0)
    assert min(w.mix.values()) >= 0.05
    seen = Counter(op.cls for op in generate(w, 1, 0, 4000))
    for cls in CLASSES:
        assert seen[cls] / 4000 == pytest.approx(w.mix[cls], abs=0.03)
    if w.name != "data-session":
        kinds = {op.kind for op in generate(w, 1, 0, 4000) if op.cls == "meta"}
        assert len(kinds) == 6


@pytest.mark.parametrize("seed", [1, 2])
def test_big_writes_are_dealt_exactly(seed):
    """Every seed gets the same number of extents, appends and truncates
    (but for the few truncates dealt while no file has grown, which become
    appends), so the count metrics differ between seeds by a fraction of
    a percent."""
    w = WORKLOADS["data-session"]
    ops = generate(w, seed, 0, 6000)
    big = Counter(
        "truncate" if op.kind == "truncate" else
        "append" if op.ref[1] == w.grow_bytes else "extent"
        for op in ops if op.cls == "write"
        and (op.kind == "truncate" or op.ref[1] > w.file_bytes // 4))
    assert sum(big.values()) == 6000 * 0.40 / w.big_every
    assert big["extent"] == 160
    assert big["append"] - big["truncate"] in range(0, 9, 2)


@pytest.mark.parametrize("name", SESSION_WORKLOADS)
def test_counts_repeat_exactly(name):
    """Same stream, same counts: across two runs, and between a traced
    and an untraced run, every public counter of every layer agrees."""
    w = WORKLOADS[name]
    pool = payload_pool(3)
    ops = generate(w, 3, 0, 400)
    plain = run.session_run(w, ops, pool, ApiRung, model=True)
    again = run.session_run(w, ops, pool, ApiRung)
    traced = run.session_run(w, ops, pool, ApiRung, traced=True)
    assert plain.failed == 0 and plain.models[0].mismatches == 0
    # The image snapshotted before the volume was closed holds every write.
    assert check.verify(plain.volumes, plain.models, plain.snapshots).correct
    assert plain.counters == again.counters == traced.counters
    assert plain.counters["pm.fences"] > 0
    assert plain.counters["pm.bytes_stored"] >= user_bytes(ops) > 0
    assert len(traced.recorders[0].spans) > len(ops)


def test_traced_wire_run_yields_every_layer_metric(tmp_path):
    """One small traced run end to end: every declared per-layer metric
    is produced, the output check passes and the ladder telescopes."""
    w = WORKLOADS["wire-mixed"]
    pool = payload_pool(2)
    streams = _streams(w, 2, 240)
    trace_file = tmp_path / "wire-mixed.trace.json"
    top, correct, metrics = run.run_layers(w, streams, pool, 240,
                                           trace_file, 1.0)
    assert correct and top.failed == 0
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    # Two closed-loop clients never fill a queue: no request was retried.
    assert metrics["server.retries_per_kop"] == 0
    assert metrics["server.rejects_per_kop"] == 0
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {"op_id", "parent", "self_us"} <= set(events[-1]["args"])
    for cls in ("read", "write", "meta"):
        ladder = metrics[f"libfs.{cls}_us"] + sum(
            metrics[f"{r}.tax_us.{cls}"] for r in
            ("api", "server.dispatch", "server.release", "server.protocol",
             "server.loop"))
        wire = run.percentile(top.timings[0].latencies_us(cls), 50)
        assert ladder == pytest.approx(wire)


def test_benchmark_json_declares_what_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER_UNITS)
    assert spec["paths"] == ["benchmarks/e2e"]
