#!/usr/bin/env python3
"""The layered wall-clock benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py --workload meta-session --seed 1
    python3 benchmarks/e2e/run.py --workload wire-mixed --seed 1 --trace
    python3 benchmarks/e2e/run.py --all [--trace] [--repeat 5 --out DIR]
    python3 benchmarks/e2e/run.py --smoke

A run builds the workload's volume(s), generates the op stream from the
seed, runs it closed-loop, checks the outputs against a shadow model and a
crash-recovered remount, prints every metric as ``name value unit`` and
ends with one JSON line.  Without ``--trace`` the metrics are the
end-to-end ones; with it, the per-layer ones from a replay of a stream
prefix at every layer boundary.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing (run from a checkout of the repository)")
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.api import Volume  # noqa: E402
from repro.core.config import ARCKFS, ARCKFS_PLUS  # noqa: E402

from harness import check, probes, spans  # noqa: E402
from harness.build import build_session, build_wire  # noqa: E402
from harness.host import (  # noqa: E402
    HostClock, RefTimer, calibrate, git_commit, warm_memory)
from harness.model import Model, user_bytes  # noqa: E402
from harness.rungs import (  # noqa: E402
    CALLS, IN_PROCESS_RUNGS, ApiRung, ProtocolRung, WireRung, areplay,
    replay, wire_sized)
from harness.stats import class_p50s, ladder_taxes, percentile  # noqa: E402
from harness.streams import (  # noqa: E402
    CLASSES, WORKLOADS, digest, generate, payload_pool)

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: ``--smoke`` divides every op count by this.
SMOKE_DIVISOR = 50

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_p50_us": "us",
    "read_p50_us": "us", "write_p50_us": "us",
    "meta_p50_us": "us", "tx_p50_us": "us", "fences_per_op": "count",
    "pm_write_amp": "ratio",
}

PER_LAYER_UNITS = {
    **{f"pm.{n}_per_op": "count" for n in
       ("fences", "clwbs", "stores", "ntstores")},
    "pm.bytes_stored_per_op": "B", "pm.bytes_loaded_per_op": "B",
    "pm.store64_persist_us": "us", "pm.ntstore4k_us": "us",
    "pm.ntstore1m_us": "us", "pm.load4k_us": "us",
    "pm.crash_image_ms": "ms", "pm.device_skew": "ratio",
    "pm.alloc.allocs_per_op": "count", "pm.alloc.refills_per_kop": "count",
    "pm.alloc.lock_acquires_per_op": "count",
    "pm.alloc.pool_hit_ratio": "ratio", "pm.alloc.page_us": "us",
    "core.append_dentry_us": "us", "core.write_extent4k_us": "us",
    "core.write_extent1m_us": "us", "core.read4k_us": "us",
    "core.read1m_us": "us",
    "kernel.acquires_per_op": "count", "kernel.verifications_per_op": "count",
    "kernel.bytes_verified_per_op": "B", "kernel.release_us": "us",
    "libfs.read_us": "us", "libfs.write_us": "us", "libfs.meta_us": "us",
    "libfs.lookups_per_op": "count", "libfs.patch_cost_x": "ratio",
    **{f"api.tax_us.{c}": "us" for c in ("read", "write", "meta")},
    "tx.stage_us": "us", "tx.commit_us": "us",
    "tx.fences_per_commit": "count", "tx.log_bytes_per_user_byte": "ratio",
    **{f"server.{r}.tax_us.{c}": "us"
       for r in ("dispatch", "release", "protocol", "loop") for c in CLASSES},
    "server.protocol.encode_us": "us", "server.protocol.decode_us": "us",
    "server.protocol.wire_bytes_per_user_byte": "ratio",
    "server.requests_per_op": "count", "server.rejects_per_kop": "count",
    "server.retries_per_kop": "count",
    "kernel.mount_s": "s", "fsck.check_s": "s", "fsck.inodes_per_s": "1/s",
    "pm.durable_image_s": "s", "bench.readback_s": "s",
    "obs.enabled_tax_x": "ratio", "bench.trace_overhead_x": "ratio",
    "host.calib_ns": "ns", "e2e.failed_ops_share": "ratio",
    "e2e.recover_s": "s", "e2e.tail_p99_us": "us",
}


# --------------------------------------------------------------------------- #
# Counters: the layers' public stats objects, before and after
# --------------------------------------------------------------------------- #


def snapshot(volumes, sessions) -> dict:
    """Summed public counters of every volume's device, allocator and
    kernel and of every session's LibFS, as ``layer.counter``."""
    snap: dict = {}
    groups = (
        ("pm", [v.device.stats for v in volumes]),
        ("alloc", [v.kernel.alloc.stats for v in volumes]),
        ("kernel", [v.kernel.stats for v in volumes]),
        ("libfs", [s.fs.stats for s in sessions]),
    )
    for layer, objs in groups:
        for obj in objs:
            for key, value in dataclasses.asdict(obj).items():
                name = f"{layer}.{key}"
                snap[name] = snap.get(name, 0) + value
    members = [m for v in volumes for m in getattr(v.device, "members",
                                                   [v.device])]
    snap["members.bytes_stored"] = [m.stats.bytes_stored for m in members]
    return snap


def delta(after: dict, before: dict) -> dict:
    out = {k: v - before[k] for k, v in after.items()
           if not isinstance(v, list)}
    out["members.bytes_stored"] = [
        a - b for a, b in zip(after["members.bytes_stored"],
                              before["members.bytes_stored"])]
    return out


# --------------------------------------------------------------------------- #
# One closed-loop run at one rung
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(repr=False)  # asyncio reprs a finished task's result
class Outcome:
    """What one replay at one rung produced."""

    timings: list
    counters: dict
    #: the closed volumes, their shadow models and the durable images
    #: snapshotted before they were closed, kept for the output check only
    #: when the run was asked to keep a model.
    volumes: list
    models: list
    snapshots: list
    setup_s: float
    #: the run's clock, shared by its timings.
    clock: HostClock
    recorders: list = dataclasses.field(default_factory=list)
    rungs: list = dataclasses.field(default_factory=list)
    requests: int = 0

    @property
    def ops(self) -> int:
        return sum(len(t.ops) for t in self.timings)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.timings)

    def rate(self) -> float:
        """Completed ops ÷ elapsed of the timed phase (first op's start to
        last op's end, over all clients, on the reference host's clock),
        in ops/s."""
        elapsed_us = self.clock.ref_us(
            min(t.starts[0] for t in self.timings),
            max(t.ends[-1] for t in self.timings))
        return self.ops * 1e6 / elapsed_us

    def latencies_us(self, cls=None) -> list:
        return [us for t in self.timings for us in t.latencies_us(cls)]


@contextlib.contextmanager
def timed_phase(clock: HostClock):
    """The timed phase, with the harness's own objects (streams, pool,
    models) frozen out of the cyclic collector's reach: a collection
    during the phase walks the program's garbage, not the benchmark's."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        clock.seal()


def session_run(w, ops, pool, rung_cls, *, traced=False, model=False,
                config=ARCKFS_PLUS, obs_on=False) -> Outcome:
    """Build a volume, replay ``ops`` through ``rung_cls`` on its Session,
    close the volume."""
    gc.collect()  # the previous run's volume, before building the next
    with RefTimer() as setup:
        b = build_session(w, pool, config)
    clock = HostClock()
    rec = spans.Recorder() if traced else None
    rung = rung_cls(b.session, b.fds, rec)
    shadow = Model(w, pool) if model else None
    before = snapshot(b.volumes, b.sessions())
    if obs_on:
        obs.enable(trace=False)
    try:
        with timed_phase(clock):
            timing = replay(rung, ops, pool, clock, shadow, rec)
    finally:
        if obs_on:
            obs.disable()
            obs.reset()
    counters = delta(snapshot(b.volumes, b.sessions()), before)
    images = [check.snapshot(v) for v in b.volumes] if model else []
    b.close()
    return Outcome([timing], counters, b.volumes if model else [],
                   [shadow], images, setup.seconds, clock,
                   [rec] if traced else [], [rung])


def wire_run(w, streams, pool, *, traced=False, model=False,
             obs_on=False) -> Outcome:
    """Build one volume per stream behind a VolumeServer, run one
    closed-loop ServerClient per stream concurrently, drain and close."""

    async def run() -> Outcome:
        gc.collect()
        with RefTimer() as setup:
            b = await build_wire(w, pool, len(streams))
        clock = HostClock()
        recs = [spans.Recorder() if traced else None for _ in streams]
        rungs = [WireRung(c, t, f, r, v.device) for c, t, f, r, v in
                 zip(b.clients, b.tokens, b.fds, recs, b.volumes)]
        models = [Model(w, pool) if model else None for _ in streams]
        sessions = b.sessions()
        before = snapshot(b.volumes, sessions)
        sent = sum(c.sent for c in b.clients)
        if obs_on:
            obs.enable(trace=False)
        try:
            with timed_phase(clock):
                timings = await asyncio.gather(*(
                    areplay(r, ops, pool, clock, m, rec)
                    for r, ops, m, rec in zip(rungs, streams, models, recs)))
        finally:
            if obs_on:
                obs.disable()
                obs.reset()
        counters = delta(snapshot(b.volumes, sessions), before)
        requests = sum(c.sent for c in b.clients) - sent
        images = [check.snapshot(v) for v in b.volumes] if model else []
        await b.close()
        return Outcome(list(timings), counters,
                       b.volumes if model else [], models, images,
                       setup.seconds, clock, recs if traced else [], rungs,
                       requests)

    return asyncio.run(run())


def top_run(w, streams, pool, **kw) -> Outcome:
    """A run at the workload's own boundary: the wire, or the facade."""
    if w.wire:
        return wire_run(w, streams, pool, **kw)
    return session_run(w, streams[0], pool, ApiRung, **kw)


# --------------------------------------------------------------------------- #
# The untraced run: end-to-end metrics
# --------------------------------------------------------------------------- #


def run_e2e(w, streams, pool, setups: int):
    """Returns the outcome, the verdict, the end-to-end metrics and what
    else the result file records about the run (not in the result line)."""
    setup_times = []
    for _ in range(setups - 1):
        # A set-up whose only purpose is to be timed: no ops, closed at once.
        setup_times.append(top_run(w, [[] for _ in streams], pool).setup_s)
    # Each set-up above reused the pages the one before it had just freed;
    # the run proper touches more of its volume than they did.
    warm_memory(w.volume_bytes * len(streams))
    out = top_run(w, streams, pool, model=True)
    setup_times.append(out.setup_s)
    verdict = check.verify(out.volumes, out.models, out.snapshots)

    written = sum(user_bytes(ops) for ops in streams)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": out.rate(),
        "op_p50_us": percentile(out.latencies_us(), 50),
        **{f"{cls}_p50_us": percentile(out.latencies_us(cls), 50)
           for cls in CLASSES},
        "fences_per_op": out.counters["pm.fences"] / out.ops,
        "pm_write_amp": out.counters["pm.bytes_stored"] / written,
    }
    extra = {
        "samples": {cls: len(out.latencies_us(cls)) for cls in CLASSES},
        # Measured every run, too unsteady to carry a bound (README).
        "unbounded": {
            "op_p99_us": percentile(out.latencies_us(), 99),
            "recover_s": verdict.recovery.total_s},
    }
    return out, verdict.correct, {k: metrics[k] for k in E2E_UNITS}, extra


# --------------------------------------------------------------------------- #
# The traced run: per-layer metrics
# --------------------------------------------------------------------------- #


def _p50(values) -> float:
    return percentile(values, 50) if values else 0.0


def _per(count: float, base: float) -> float:
    return count / base if base else 0.0


def _moved_bytes(ops) -> int:
    """Payload written plus bytes read: the wire's user bytes."""
    return user_bytes(ops) + sum(op.size for op in ops if op.cls == "read")


def _crash_image_ms(volume, pool: bytes) -> float:
    """Mean ms to build, mount and fsck one sampled crash image, with
    unfenced stores in flight (the diagnostic for a tracking rewrite)."""
    dev = volume.device
    dev.store(dev.size - 64 * 1024, pool[:64 * 1024])  # dirty, not fenced
    warm_memory((1 + check.MOUNT_FOOTPRINT) * dev.size)
    # An untracked device has one possible image: sample it once.
    n = 4 if dev.crash_tracking else 1
    with RefTimer() as took:
        for image in dev.sample_crash_images(n, seed=n):
            Volume.mount(image).fsck()
    return took.seconds * 1e3 / n


def run_layers(w, streams, pool, trace_n: int, trace_path: Path,
               calib_ns: float):
    """Replay a prefix of the stream at every rung, bottom to top."""
    prefix = [ops[:trace_n] for ops in streams]
    # Rungs above the workload's own boundary are probes: fewer ops, and
    # only those whose payload fits a frame.
    probe = [op for op in prefix[0][:max(200, trace_n // 4)]
             if wire_sized(op)]
    metrics: dict = {"host.calib_ns": calib_ns}
    trace: dict = {}
    ladder = []

    # pm and core: fixed primitives on an identically built volume.
    b = build_session(w, pool)
    rec = spans.Recorder()
    stat = b.session.stat
    metrics.update(probes.core_probe(
        b.volume, pool, rec, stat("/d000").ino, stat("/d000/f0").ino))
    trace["core"] = spans.merge([rec])
    rec = spans.Recorder()
    metrics.update(probes.pm_probe(b.volume, pool, rec))
    trace["pm"] = spans.merge([rec])
    # Not closed: the probes left state no verifier would accept.
    del b

    # The in-process rungs replay tenant 0's prefix.  Only the workload's
    # own rung is kept; a 256 MiB volume per rung is not.
    top = None
    api = IN_PROCESS_RUNGS.index(ApiRung)
    for level, rung_cls in enumerate(IN_PROCESS_RUNGS):
        own = not w.wire and level == api
        above = not w.wire and level > api
        out = session_run(w, probe if above else prefix[0], pool, rung_cls,
                          traced=True, model=own)
        rec, rung = out.recorders[0], out.rungs[0]
        ladder.append((rung.name, out.timings[0].by_op()))
        trace[rung.name] = spans.merge([rec])
        if rung.name == "server.release":
            metrics["kernel.release_us"] = _p50(
                rec.durations_us("kernel.release", out.clock))
        if rung_cls is ProtocolRung:
            metrics["server.protocol.encode_us"] = _p50(
                rec.durations_us("server.protocol.encode", out.clock))
            metrics["server.protocol.decode_us"] = _p50(
                rec.durations_us("server.protocol.decode", out.clock))
            metrics["server.protocol.wire_bytes_per_user_byte"] = _per(
                rung.wire_bytes, _moved_bytes(out.timings[0].ops))
        if own:
            top = out
        del out, rec, rung
    wire = wire_run(w, prefix if w.wire else [probe], pool, traced=True,
                    model=w.wire)
    ladder.append(("server.loop", wire.timings[0].by_op()))
    trace["wire"] = spans.merge(wire.recorders)
    # Every request beyond the stream's own calls is the client's retry
    # of a rejection; an op that gave up was rejected once more than that.
    retries = wire.requests - sum(CALLS[op.kind] for t in wire.timings
                                  for op in t.ops)
    metrics["server.requests_per_op"] = wire.requests / wire.ops
    metrics["server.retries_per_kop"] = retries * 1e3 / wire.ops
    metrics["server.rejects_per_kop"] = (
        (retries + sum(r.exhausted for r in wire.rungs)) * 1e3 / wire.ops)
    if w.wire:
        top = wire
    del wire

    # The workload's own boundary: output check, recovery parts, counts.
    verdict = check.verify(top.volumes, top.models, top.snapshots)
    rcv = verdict.recovery
    metrics.update({
        "e2e.recover_s": rcv.total_s,
        "pm.durable_image_s": rcv.durable_image_s,
        "kernel.mount_s": rcv.mount_s,
        "fsck.check_s": rcv.check_s,
        "fsck.inodes_per_s": rcv.inodes / rcv.check_s,
        "bench.readback_s": rcv.readback_s,
        "pm.crash_image_ms": _crash_image_ms(top.volumes[0], pool),
        "e2e.failed_ops_share": top.failed / top.ops,
        "e2e.tail_p99_us": percentile(top.latencies_us(), 99),
    })
    c, n = top.counters, top.ops
    for name in ("fences", "clwbs", "stores", "ntstores", "bytes_stored",
                 "bytes_loaded"):
        metrics[f"pm.{name}_per_op"] = c[f"pm.{name}"] / n
    stored = c["members.bytes_stored"]
    metrics["pm.device_skew"] = max(stored) * len(stored) / sum(stored)
    metrics["pm.alloc.allocs_per_op"] = c["alloc.allocs"] / n
    metrics["pm.alloc.refills_per_kop"] = c["alloc.pool_refills"] * 1e3 / n
    metrics["pm.alloc.lock_acquires_per_op"] = c["alloc.lock_acquires"] / n
    metrics["pm.alloc.pool_hit_ratio"] = _per(c["alloc.pool_hits"],
                                              c["alloc.allocs"])
    for name in ("acquires", "verifications", "bytes_verified"):
        metrics[f"kernel.{name}_per_op"] = c[f"kernel.{name}"] / n
    metrics["libfs.lookups_per_op"] = c["libfs.lookups"] / n

    tx = [r.tx_trace for r in top.rungs]
    metrics["tx.stage_us"] = _p50(
        [us for r in top.recorders
         for us in r.durations_us("tx.stage", top.clock)])
    metrics["tx.commit_us"] = _p50(
        [us for r in top.recorders
         for us in r.durations_us("tx.commit", top.clock)])
    metrics["tx.fences_per_commit"] = _per(sum(t.fences for t in tx),
                                           sum(t.commits for t in tx))
    metrics["tx.log_bytes_per_user_byte"] = _per(
        sum(t.log_bytes for t in tx), sum(t.user_bytes for t in tx))

    # The ladder: libfs p50s, then one tax per rung and class.
    for cls, us in class_p50s(ladder[0][1]).items():
        metrics[f"libfs.{cls}_us"] = us
    metrics.update(ladder_taxes(ladder))

    # Overheads, each a ratio of two replays of the same prefix.
    plain = top_run(w, prefix, pool)
    metrics["bench.trace_overhead_x"] = plain.rate() / top.rate()
    metrics["obs.enabled_tax_x"] = (
        plain.rate() / top_run(w, prefix, pool, obs_on=True).rate())
    plus = plain if not w.wire else session_run(w, prefix[0], pool, ApiRung)
    artifact = session_run(w, prefix[0], pool, ApiRung, config=ARCKFS)
    metrics["libfs.patch_cost_x"] = plus.rate() / artifact.rate()

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans.write_chrome_trace(str(trace_path), trace)
    metrics = {k: metrics[k] for k in PER_LAYER_UNITS if k in metrics}
    return top, verdict.correct, metrics


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    divisor = SMOKE_DIVISOR if args.smoke else 1
    n_ops = w.ops_for(args.seconds) // divisor
    pool = payload_pool(args.seed)
    streams = [generate(w, args.seed, t, max(1, n_ops // w.tenants))
               for t in range(w.tenants)]
    out_dir = Path(args.out) if args.out else HERE / "out"
    if args.smoke:
        out_dir /= "smoke"  # never pooled with full-length runs
    out_dir.mkdir(parents=True, exist_ok=True)
    calib_ns = calibrate()
    if args.trace:
        trace_n = w.trace_ops_for(args.seconds) // divisor
        trace_n = max(1, min(trace_n, len(streams[0])))
        out, correct, metrics = run_layers(
            w, streams, pool, trace_n, out_dir / f"{w.name}.trace.json",
            calib_ns)
        units, mode = PER_LAYER_UNITS, "layers"
        extra = {"trace_ops": trace_n}
    else:
        out, correct, metrics, extra = run_e2e(
            w, streams, pool, 1 if args.smoke else SETUPS)
        units, mode = E2E_UNITS, "e2e"

    result = {
        "correct": correct, "attempted": out.ops, "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": w.name, "mode": mode, "seed": args.seed,
        "seconds": args.seconds, "stream_digest": digest(streams, pool),
        "host": {"calib_ns": calib_ns, "slowdown": out.clock.slowdown(),
                 "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "commit": git_commit(ROOT)},
        **extra, **result,
    }
    with open(out_dir / f"{w.name}.seed{args.seed}.{mode}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {w.name} seed={args.seed} mode={mode} ops={out.ops} "
          f"failed={out.failed} "
          f"digest={record['stream_digest'][:16]}")
    if not args.trace:
        print("# samples per class: " + " ".join(
            f"{cls}={n}" for cls, n in extra["samples"].items()))
        print(f"failed_ops_share {out.failed / out.ops!r} ratio")
        for name, value in extra["unbounded"].items():
            print(f"# unbounded: {name} {value!r}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps(result))
    return 0 if correct and not out.failed else 1


def run_many(args) -> int:
    """``--all`` / ``--repeat``: one fresh interpreter per run, so no run
    sees another's heap."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", args.out]
            status |= subprocess.run(cmd).returncode
    return status


def run_smoke(args) -> int:
    """Every workload end to end, then one traced rung set, at 1/50 of
    the op counts: does the harness still run, not how fast."""
    status = 0
    for name, trace in [(n, 0) for n in WORKLOADS] + [("meta-session", 1)]:
        status |= run_one(argparse.Namespace(
            **{**vars(args), "workload": name, "trace": trace}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="every workload, each in a fresh interpreter")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12,
                    help="nominal length of the timed phase; fixes the op "
                         "count (workload rate x seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="per-layer run (1) instead of end-to-end (0)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, with seeds seed..seed+n-1")
    ap.add_argument("--out", help="directory for result and trace files "
                                  "(default: out/ beside this file)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/50 of the op count, plus one "
                         "traced run")
    args = ap.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.all:
        args.workload = None
    elif not args.workload:
        ap.error("--workload, --all or --smoke is required")
    if args.all or args.repeat > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
