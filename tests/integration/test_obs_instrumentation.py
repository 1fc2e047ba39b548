"""Integration tests: the observability layer against the real stack.

The headline regression here is the paper's architectural claim itself:
once a LibFS owns a file, data-path operations never enter the kernel —
``kernel.crossings`` must stay exactly zero across a pread/pwrite loop,
and must rise as soon as ownership moves (release / re-acquire).
"""

import json
import re

import pytest

from repro import obs
from repro.obs.driver import ObservedRun, resolve, run_observed
from repro.errors import InvalidArgument


def _crossings() -> int:
    return obs.metrics.counter_total("kernel.crossings")


# --------------------------------------------------------------------------- #
# The zero-crossing invariant
# --------------------------------------------------------------------------- #


def test_pure_data_path_has_zero_kernel_crossings(fs):
    fd = fs.creat("/data.bin")
    fs.pwrite(fd, b"x" * 4096, 0)  # first write attaches + allocates

    obs.reset()
    obs.enable()
    before = _crossings()
    for i in range(32):
        fs.pwrite(fd, bytes([i % 256]) * 512, (i % 8) * 512)
        assert len(fs.pread(fd, 512, (i % 8) * 512)) == 512
    obs.disable()

    assert _crossings() - before == 0, (
        "data-path ops on an owned file must not enter the kernel"
    )
    # ...but the LibFS itself saw and timed every syscall.
    hists = obs.metrics.snapshot()["histograms"]
    assert hists["libfs.syscall.pwrite.ns"]["count"] == 32
    assert hists["libfs.syscall.pread.ns"]["count"] == 32
    assert hists["libfs.syscall.ns"]["count"] == 64


def test_ownership_transfer_crosses_the_kernel(fs):
    fd = fs.creat("/shared.bin")
    fs.pwrite(fd, b"y" * 1024, 0)
    fs.close(fd)
    fs.commit_path("/")                   # register the new file (Rule 1)

    obs.reset()
    obs.enable()
    fs.release_path("/shared.bin")        # ownership back to the kernel
    fd = fs.open("/shared.bin")           # re-acquire → mmap crossing
    assert fs.pread(fd, 4, 0) == b"yyyy"
    obs.disable()

    assert _crossings() > 0
    snap = obs.metrics.snapshot()["counters"]
    assert snap.get("kernel.crossings{reason=ownership_transfer}", 0) >= 1
    assert snap.get("kernel.crossings{reason=mmap}", 0) >= 1


def test_syscall_latency_histograms_populated(fs):
    obs.reset()
    obs.enable()
    fd = fs.creat("/lat.bin")
    fs.pwrite(fd, b"z" * 256, 0)
    fs.close(fd)
    obs.disable()

    hists = obs.metrics.snapshot()["histograms"]
    for op in ("creat", "pwrite", "close"):
        summary = hists[f"libfs.syscall.{op}.ns"]
        assert summary["count"] == 1
        assert summary["p50"] > 0
    agg = hists["libfs.syscall.ns"]
    assert agg["count"] == 3
    assert agg["p99"] >= agg["p50"] > 0


def test_lock_and_failpoint_metrics_surface(fs):
    obs.reset()
    obs.enable()
    fd = fs.creat("/locks.bin")
    fs.pwrite(fd, b"a" * 128, 0)
    obs.disable()

    snap = obs.metrics.snapshot()["counters"]
    assert snap.get("lock.acquisitions", 0) > 0
    assert snap.get("lock.wait_ns", 0) >= 0
    # creat passes §4.4's failpoint site even with no hook installed.
    assert snap.get("failpoints.hit{name=creat.pre_core_append}", 0) == 1


def test_disabled_instrumentation_records_nothing(fs):
    assert not obs.enabled
    fd = fs.creat("/quiet.bin")
    fs.pwrite(fd, b"q" * 64, 0)
    fs.close(fd)
    snap = obs.metrics.snapshot()
    assert snap["counters"] == {} and snap["histograms"] == {}
    assert obs.tracer.events() == []


def test_tracing_nests_kernel_instants_inside_syscall_spans(fs):
    obs.reset()
    obs.enable(trace=True)
    fd = fs.creat("/traced.bin")
    fs.close(fd)
    obs.disable()

    evs = obs.tracer.events()
    spans = [e for e in evs if e["ph"] == "X"]
    instants = [e for e in evs if e["ph"] == "i"]
    assert any(e["name"] == "creat" and e["cat"] == "syscall" for e in spans)
    assert any(e["name"].startswith("kernel.") for e in instants)


# --------------------------------------------------------------------------- #
# One count per event
# --------------------------------------------------------------------------- #

#: Registry series that counted, a second time, an event a record counts.
_SECOND_COUNTS = re.compile(
    r"^(fsck\.|tx\.(replays|replayed_ops|recovery_discarded)\b"
    r"|server\.(recalls|sessions)\b|libfs\.syscall\.count\b)")

#: traced op -> the LibFSStats field counting the same calls.
_OP_FIELDS = {"creat": "creates", "mkdir": "mkdirs", "open": "opens",
              "stat": "stats_", "readdir": "readdirs", "pwrite": "writes",
              "pread": "reads", "rename": "renames", "unlink": "unlinks",
              "rmdir": "rmdirs", "fsync": "fsyncs"}


def test_each_event_has_one_counter():
    """An event is counted once: in the record that counts it — fsck in
    ``FsckReport`` (mount's check and repairs too), verifications in
    ``KernelStats``, a tenant's recalls and sessions on ``TenantState`` —
    and in the registry only at a grain no record keeps, such as the
    per-op syscall histograms.  No second counter shadows any of them."""
    import dataclasses

    from repro.api import Volume
    from repro.concurrency.failpoints import failpoints
    from repro.errors import CrashPoint
    from repro.fsck.findings import F_TX_TORN
    from tests.integration.test_server import run, serving
    from tests.integration.test_server_ownership import connect
    from tests.integration.test_tx_crash import (crash_at, make_volume,
                                                 populate, stage_tx)

    obs.reset()
    obs.enable(trace=True)
    try:
        vol = make_volume()
        s = vol.session("app")
        before = dataclasses.replace(s.fs.stats)
        s.mkdir("/d")
        fd = s.creat("/d/f")
        s.pwrite(fd, b"x" * 5000, 0)
        assert s.pread(fd, 100, 4000) == b"x" * 100
        s.fsync(fd)
        s.close(fd)
        s.stat("/d/f")
        s.readdir("/d")
        s.rename("/d/f", "/g")
        s.close(s.open("/g"))
        s.unlink("/g")
        s.rmdir("/d")
        hists = obs.metrics.snapshot()["histograms"]
        after = s.fs.stats
        for op, name in _OP_FIELDS.items():
            calls = hists[f"libfs.syscall.{op}.ns"]["count"]
            assert calls == getattr(after, name) - getattr(before, name) > 0, op

        # A whole-file or sequential verb is one sample of its own, with no
        # descriptor verb's nested inside it: its data moves through the
        # bodies of pread/pwrite, not through the traced verbs.
        def samples():
            h = obs.metrics.snapshot()["histograms"]
            return {op: h.get(f"libfs.syscall.{op}.ns", {}).get("count", 0)
                    for op in ("write_file", "read_file", "write", "read", "open",
                               "close", "creat", "pread", "pwrite", "fsync")}
        before, counts = dataclasses.replace(s.fs.stats), samples()
        s.write_file("/w", b"abc")
        s.write_file("/w", b"d")
        assert s.read_file("/w") == b"dbc"
        fd = s.open("/w")
        s.write(fd, b"e")
        assert s.read(fd, 2) == b"bc"
        s.close(fd)
        grown = {op: n - counts[op] for op, n in samples().items()}
        assert grown == {"write_file": 2, "read_file": 1, "write": 1, "read": 1,
                         "open": 1, "close": 1, "creat": 0, "pread": 0,
                         "pwrite": 0, "fsync": 0}
        after = s.fs.stats
        assert (after.writes - before.writes, after.reads - before.reads,
                after.creates - before.creates, after.opens - before.opens,
                after.fsyncs - before.fsyncs) == (3, 2, 1, 1, 0)
        s.unlink("/w")

        s.release_all()
        a, b = vol.session("a", group="g"), vol.session("b", group="g")
        a.write_file("/shared", b"one")
        a.release_all()
        b.write_file("/shared", b"two")
        b.release_all()
        k = vol.kernel.stats
        verifies = [e for e in obs.tracer.events()
                    if e["name"] == "verify.pipeline"]
        assert k.group_skips > 0 and k.verifications > 0
        assert len(verifies) == k.verifications + k.group_skips

        report = vol.fsck()
        assert report.clean and report.passes == 1 and not report.repairs
        assert report.inodes_valid == 2 and report.files == 1
        assert report.dentries >= 1 and report.pages_claimed > 0

        populate(s)
        tx = stage_tx(s)
        crash_at("tx.post_seal")
        with pytest.raises(CrashPoint):
            tx.commit()
        failpoints.clear()
        mounted = Volume.mount(vol.device.durable_image())
        # a valid log, replayed: create, pwrite, rename, unlink
        assert [(f.meta["valid"], f.meta["ops"])
                for f in mounted.recovery.by_class(F_TX_TORN)] == [(True, 4)]
        assert mounted.recovery.repairs[F_TX_TORN] == 1

        async def serve():
            async with serving() as (server, _volumes):
                async with await connect(server) as cli:
                    x = await cli.open_session("acme")
                    y = await cli.open_session("acme")
                    await cli.call("creat", session=x, path="/once")
                    await cli.call("stat", session=y, path="/")
                    return server.stats()["tenants"]["acme"]
        tenant = run(serve())
        assert tenant["sessions"] == 2 and tenant["recalls"] == 1
        snap = obs.metrics.snapshot()
    finally:
        obs.disable()
        obs.reset()
    names = [n for kind in ("counters", "gauges", "histograms")
             for n in snap[kind]]
    assert [n for n in names if _SECOND_COUNTS.match(n)] == []
    assert any(n.startswith("server.") for n in names)


# --------------------------------------------------------------------------- #
# The observed-run driver
# --------------------------------------------------------------------------- #


def test_run_observed_fxmark_metadata():
    run = run_observed("fxmark:MWCL", threads=1, ops_per_thread=8)
    assert isinstance(run, ObservedRun)
    assert run.ops == 8
    c = run.metrics["counters"]
    assert c["kernel.crossings"] > 0          # creat allocates inodes
    assert c["pm.fences"] > 0
    assert "lock.wait_ns" in c
    assert run.metrics["histograms"]["libfs.syscall.ns"]["count"] >= 8
    assert not obs.enabled                    # driver restores the flag


def test_run_observed_leaves_the_callers_switches_as_it_found_them():
    obs.enable(trace=True)
    run_observed("fxmark:MWCL", ops_per_thread=2, profile=True)
    assert obs.enabled and obs.tracer.enabled
    assert not obs.profiler.enabled
    assert obs.profiler.paths()               # the run itself was profiled


def test_run_observed_data_workload_zero_crossing_tail():
    """After preparation, an fxmark data workload is pure LibFS."""
    run = run_observed("fxmark:DRBL", threads=1, ops_per_thread=16)
    c = run.metrics["counters"]
    # All crossings happened during prepare (measured window only covers
    # the op loop) — reads of an owned file never cross.
    assert c["kernel.crossings"] == 0
    # The driver runs the op loop under ambient {app_id, volume} labels,
    # and the base name still aggregates across every op and label set.
    h = run.metrics["histograms"]
    assert h["libfs.syscall.pread.ns{app_id=obs,volume=obs}"]["count"] == 16
    assert h["libfs.syscall.ns"]["count"] >= 16


def test_run_observed_multithreaded():
    run = run_observed("fxmark:MWCM", threads=4, ops_per_thread=4)
    assert run.ops == 16
    assert run.metrics["gauges"]["run.threads"] == 4
    assert run.metrics["histograms"]["libfs.syscall.ns"]["count"] >= 16


def test_run_observed_filebench():
    run = run_observed("filebench:varmail", threads=1, ops_per_thread=4)
    assert run.metrics["histograms"]["libfs.syscall.ns"]["count"] > 0
    assert run.spec == "filebench:varmail-shared"


def test_resolve_rejects_bad_specs():
    for bad in ("nope", "fxmark:", "fxmark:NOPE", "filebench:nope",
                "filebench:varmail-sideways", "what:ever"):
        with pytest.raises(InvalidArgument):
            resolve(bad)


def test_run_observed_rejects_unknown_fs():
    with pytest.raises(InvalidArgument):
        run_observed("fxmark:MWCL", fs="zfs")


# --------------------------------------------------------------------------- #
# CLI end-to-end
# --------------------------------------------------------------------------- #


def test_cli_trace_writes_valid_chrome_trace(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.json"
    assert main(["trace", "fxmark:MWCL", "--out", str(out), "--ops", "8"]) == 0
    doc = json.loads(out.read_text())
    evs = doc["traceEvents"]
    assert evs[0]["ph"] == "M"
    assert any(e["ph"] == "X" and e["cat"] == "syscall" for e in evs)
    assert "wrote" in capsys.readouterr().out


def test_cli_trace_jsonl(tmp_path):
    from repro.cli import main
    from repro.obs.trace import read_jsonl

    out = tmp_path / "t.jsonl"
    assert main(["trace", "fxmark:MWCL", "--out", str(out),
                 "--format", "jsonl", "--ops", "4"]) == 0
    evs = read_jsonl(str(out))
    assert any(e["ph"] == "X" for e in evs)


def test_cli_metrics_prints_headline_counters(capsys):
    from repro.cli import main

    assert main(["metrics", "fxmark:MWCL", "--ops", "8"]) == 0
    out = capsys.readouterr().out
    for needle in ("kernel.crossings", "pm.fences", "lock.wait_ns", "p95="):
        assert needle in out


def test_cli_metrics_json(capsys):
    from repro.cli import main

    assert main(["metrics", "fxmark:MWCL", "--ops", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workload"] == "fxmark:MWCL"
    assert doc["metrics"]["counters"]["kernel.crossings"] >= 0
