"""Smoke tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


def test_table4(capsys):
    assert main(["reproduce", "table4"]) == 0
    out = capsys.readouterr().out
    assert "4KB-write 1GB" in out
    assert "arckfs+-trust-group" in out
    # The rows only the old CLI printed are kept.
    assert "verification scaling" in out and "4.94x" in out


def test_fig3(capsys):
    assert main(["reproduce", "fig3", "table4"]) == 0
    out = capsys.readouterr().out
    assert "arckfs+" in out and "strata" in out and "create" in out
    assert out.index("Figure 3") < out.index("Table 4")


def test_filebench(capsys):
    assert main(["reproduce", "filebench"]) == 0
    out = capsys.readouterr().out
    assert "webproxy-shared" in out and "+/arck" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig9000"])


def test_deleted_table_verbs_are_gone():
    for verb in ("table1", "fig3", "table2", "fig4", "table4", "filebench",
                 "all"):
        with pytest.raises(SystemExit):
            main([verb])


def test_obs_diff_is_gone():
    with pytest.raises(SystemExit):
        main(["obs", "diff", "x"])


def test_unknown_experiment_rejected(capsys):
    assert main(["reproduce", "table4", "fig9000"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment(s) fig9000" in err and "table4" in err


def test_table4_json(capsys):
    import json

    assert main(["reproduce", "table4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["table4"] and doc["table4"]["problems"] == []
    cell = doc["table4"]["data"]["cells"][0]
    assert {"scenario", "system", "value", "unit"} <= set(cell)


def test_reproduce_exits_1_and_names_the_unmet_claim(monkeypatch, capsys):
    import dataclasses

    from repro.experiments import EXPERIMENTS

    exp = EXPERIMENTS["table4"]
    monkeypatch.setitem(EXPERIMENTS, "table4", dataclasses.replace(
        exp, check=lambda data: ["Create 10: trust group not below nova"]))
    assert main(["reproduce", "table4"]) == 1
    out = capsys.readouterr().out
    assert "unmet claims:" in out
    assert "table4: Create 10: trust group not below nova" in out


def test_trace_requires_workload():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_metrics_unknown_workload_rejected(capsys):
    assert main(["metrics", "fxmark:NOSUCH"]) == 2
    err = capsys.readouterr().err
    assert "unknown fxmark workload" in err and "MWCL" in err


def test_profile_writes_round_trippable_collapsed(tmp_path, capsys):
    from repro.obs.profile import read_collapsed

    out = tmp_path / "p.collapsed"
    assert main(["profile", "filebench:varmail", "--ops", "4",
                 "--out", str(out)]) == 0
    stacks = read_collapsed(str(out))
    assert stacks and all(w > 0 for w in stacks.values())
    text = capsys.readouterr().out
    assert "stacks" in text and str(out) in text


def test_metrics_format_prom(capsys):
    assert main(["metrics", "fxmark:MWCL", "--ops", "4",
                 "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_kernel_crossings_total counter" in out
    assert "repro_libfs_syscall_ns_bucket" in out


def test_metrics_json_error_doc_has_span_path(capsys):
    import json

    assert main(["metrics", "fxmark:NOSUCH", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "InvalidArgument"
    assert doc["exit"] == 2
    assert "span_path" in doc and "trace_id" in doc


def test_loadgen_exits_1_when_no_op_ran(capsys):
    """Every client's setup fails (its payload cannot be framed), so no op
    runs: all six count as failed and the exit is 1.  It was 0, with
    ``fail 0``: a client stopped by setup counted no failure."""
    import json

    assert main(["loadgen", "--self", "--tenants", "t0", "--clients", "2",
                 "--ops", "3", "--payload", str(2 << 20), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["completed"] == {"t0": 0} and doc["failures"] == {"t0": 6}
