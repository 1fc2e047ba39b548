"""Command-line entry point: regenerate the paper's tables directly.

Usage::

    python -m repro reproduce               # every experiment, ~1 min
    python -m repro reproduce table4 fig3   # just these
    python -m repro reproduce table2 --json # {name: {data, problems}}

The experiments — the paper's eight and this reproduction's six — and the
paper's numbers are defined once, in :mod:`repro.experiments`: each
renders the table ``benchmarks/results/<name>.txt`` holds and checks its
claims; ``reproduce`` exits 1 and names every unmet claim.  The
observability verbs run a *functional* workload (real LibFS + kernel
controller, not the DES) with instrumentation enabled::

    python -m repro trace fxmark:MWCL --out trace.json   # chrome://tracing
    python -m repro metrics filebench:varmail            # counters + latency
    python -m repro metrics fxmark:MWCL --format prom    # Prometheus text
    python -m repro profile fxmark:MWCL --out p.collapsed  # flamegraph input
    python -m repro top filebench:varmail --threads 4    # live registry view

``pytest benchmarks/bench_paper.py --benchmark-only`` runs the same
experiments, times them and rewrites ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List


def cmd_reproduce(args) -> int:
    from repro.errors import InvalidArgument
    from repro.experiments import EXPERIMENTS

    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        raise InvalidArgument(f"unknown experiment(s) {', '.join(unknown)} "
                              f"(known: {', '.join(EXPERIMENTS)})")
    results = {}
    for name in args.names or EXPERIMENTS:
        exp = EXPERIMENTS[name]
        data = exp.run()
        results[name] = {"data": data, "problems": exp.check(data)}
        if not args.json:
            print(exp.render(data), end="\n\n")
    unmet = [f"{name}: {p}" for name, r in results.items() for p in r["problems"]]
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    elif unmet:
        print("unmet claims:")
        for line in unmet:
            print(f"  {line}")
    return 1 if unmet else 0


def cmd_trace(args) -> None:
    from repro import obs
    from repro.obs.driver import run_observed

    run = run_observed(args.workload, threads=args.threads,
                       ops_per_thread=args.ops, fs=args.fs, trace=True)
    if args.format == "chrome":
        obs.tracer.write_chrome(args.out, process_name=f"repro:{args.workload}")
    else:
        obs.tracer.write_jsonl(args.out)
    n = len(obs.tracer.events())
    print(f"{args.workload}: {run.ops} ops on {args.threads} thread(s), "
          f"{run.ops_per_sec:,.0f} ops/s")
    print(f"wrote {n} trace events to {args.out} ({args.format}); "
          f"{obs.tracer.dropped} dropped past the "
          f"{obs.tracer.max_events:,}-event buffer")
    if args.format == "chrome":
        print("open chrome://tracing (or https://ui.perfetto.dev) and load it")


def cmd_metrics(args) -> None:
    from repro import obs
    from repro.obs.driver import run_observed
    from repro.obs.metrics import format_snapshot

    run = run_observed(args.workload, threads=args.threads,
                       ops_per_thread=args.ops, fs=args.fs)
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps({"workload": args.workload, "fs": args.fs,
                          "threads": args.threads, "ops": run.ops,
                          "metrics": run.metrics},
                         indent=2, sort_keys=True))
    elif fmt == "prom":
        from repro.obs.export import to_prometheus

        sys.stdout.write(to_prometheus(obs.metrics))
    else:
        print(format_snapshot(run.metrics,
                              title=f"{args.workload} on {args.fs}"))


def cmd_profile(args) -> None:
    from repro import obs
    from repro.obs.driver import run_observed

    run = run_observed(args.workload, threads=args.threads,
                       ops_per_thread=args.ops, fs=args.fs, profile=True)
    obs.profiler.write_collapsed(args.out)
    stacks = len(obs.profiler.collapsed().splitlines())
    print(f"{args.workload}: {run.ops} ops on {args.threads} thread(s), "
          f"{run.ops_per_sec:,.0f} ops/s")
    print(f"wrote {stacks} collapsed stacks to {args.out} "
          "(self wall ns; feed to flamegraph.pl or speedscope)")
    print()
    print(obs.profiler.report(top=args.top))


def cmd_top(args) -> None:
    import threading
    import time

    from repro import obs
    from repro.obs.driver import run_observed
    from repro.obs.export import render_top

    box: Dict[str, object] = {}
    errors: List[BaseException] = []

    def runner() -> None:
        try:
            box["run"] = run_observed(args.workload, threads=args.threads,
                                      ops_per_thread=args.ops, fs=args.fs)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    title = f"{args.workload} on {args.fs}"
    worker = threading.Thread(target=runner, daemon=True)
    prev = None
    prev_t = time.monotonic()
    worker.start()
    while worker.is_alive():
        worker.join(args.interval)
        cur = obs.metrics.snapshot()
        now = time.monotonic()
        frame = render_top(cur, prev, now - prev_t, title=title)
        if sys.stdout.isatty():
            print("\x1b[2J\x1b[H" + frame, flush=True)
        else:
            print(frame, end="\n\n", flush=True)
        prev, prev_t = cur, now
    if errors:
        raise errors[0]
    run = box["run"]
    print(render_top(run.metrics, prev, max(time.monotonic() - prev_t, 1e-9),
                     title=f"{title} (final)"))
    print(f"\n{run.ops} ops on {run.threads} thread(s), "
          f"{run.ops_per_sec:,.0f} ops/s")


def _parse_mix(spec: str) -> Dict[str, int]:
    from repro.errors import InvalidArgument

    mix: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        try:
            mix[name] = int(weight) if weight else 1
        except ValueError:
            raise InvalidArgument(f"bad mix entry {part!r} "
                                  "(want op=weight)") from None
    if not mix:
        raise InvalidArgument(f"empty op mix {spec!r}")
    return mix


def _tenant_names(spec: str) -> List[str]:
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if names and all(n.isdigit() for n in names) and len(names) == 1:
        return [f"t{i}" for i in range(int(names[0]))]
    return names


def cmd_serve(args) -> int:
    import asyncio

    from repro.errors import InvalidArgument
    from repro.server import ServerConfig, TenantPolicy, VolumeServer, make_volumes

    tenants = _tenant_names(args.tenants)
    if not tenants:
        raise InvalidArgument("serve needs at least one tenant")
    config = ServerConfig(
        host=args.host, port=args.port,
        policy=TenantPolicy(max_sessions=args.max_sessions,
                            max_burst=args.max_burst),
        lease_seconds=args.lease)

    async def run() -> int:
        volumes = make_volumes(tenants, size=args.size << 20,
                               inode_count=args.inodes)
        server = VolumeServer(volumes, config)
        await server.start()
        print(f"serving {len(volumes)} volume(s) "
              f"[{', '.join(tenants)}] on {args.host}:{server.port}  "
              f"(max_sessions={args.max_sessions} "
              f"max_burst={args.max_burst} lease={args.lease:g}s)")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until interrupted
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            print("draining...")
            await server.close()
            clean = True
            for name, vol in volumes.items():
                report = vol.fsck()
                clean &= report.clean
                print(f"  {name}: fsck {'clean' if report.clean else 'DIRTY'}")
                vol.close()
        return 0 if clean else 1

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_loadgen(args) -> int:
    import asyncio
    import contextlib

    from repro.errors import ServerError
    from repro.server import (
        LoadConfig,
        ServerConfig,
        VolumeServer,
        make_volumes,
        run_load,
    )

    tenants = _tenant_names(args.tenants)
    cfg = LoadConfig(
        tenants=tenants, clients_per_tenant=args.clients,
        ops_per_client=args.ops, payload=args.payload,
        mix=_parse_mix(args.mix),
        connections_per_tenant=args.connections, seed=args.seed)

    async def run() -> int:
        volumes = {}
        server = None
        try:
            if args.self_serve:
                volumes = make_volumes(tenants)
                server = VolumeServer(volumes, ServerConfig(host=args.host))
                await server.start()
                host, port = args.host, server.port
            else:
                host, port = args.host, args.port
            try:
                report = await run_load(host, port, cfg)
            except OSError as exc:
                # A refused/failed connection is a server error on the
                # wire, not a stack trace.
                raise ServerError(
                    f"cannot reach {host}:{port}: {exc}") from None
        finally:
            if server is not None:
                with contextlib.suppress(Exception):
                    await server.close()
            for vol in volumes.values():
                vol.close()
        if args.json:
            print(json.dumps({
                "completed": report.completed,
                "failures": report.failures,
                "retries": report.retries,
                "reopens": report.reopens,
                "requests_sent": report.requests_sent,
                "responses_received": report.responses_received,
                "unmatched_responses": report.unmatched_responses,
                "lost_responses": report.lost_responses,
                "elapsed": report.elapsed,
                "ops_per_sec": report.ops_per_sec,
            }, indent=2, sort_keys=True))
        else:
            print(report.render())
        bad = (report.unmatched_responses or report.lost_responses
               or report.total_completed != cfg.total_ops)
        return 1 if bad else 0

    return asyncio.run(run())


def cmd_fsck(args) -> int:
    from repro.fsck import INJECTORS, build_volume, run_fsck
    from repro.pm.device import PMDevice

    if args.image:
        with open(args.image, "rb") as fh:
            # The superblock names the member count.
            device = PMDevice.from_image(fh.read(), crash_tracking=False)
    else:
        device, _kernel, _fs = build_volume(
            files=args.files, dirs=args.dirs,
            devices=args.devices, stripe_pages=args.stripe_pages)
        for name in args.inject or ():
            inject, _cls = INJECTORS[name]
            inject(device)
    report = run_fsck(device, repair=args.repair)
    if args.dump_image:
        with open(args.dump_image, "wb") as fh:
            fh.write(device.durable_image())
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    if report.clean:
        return 0
    if any(not f.repairable for f in report.findings):
        return 2
    return 1


def _add_workload_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("workload",
                     help="workload spec: fxmark:<NAME> (e.g. fxmark:MWCL) "
                          "or filebench:<personality>[-shared|-private]")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (default 1)")
    sub.add_argument("--ops", type=int, default=64,
                     help="operations per thread (default 64)")
    sub.add_argument("--fs", choices=["arckfs", "arckfs+"],
                     default="arckfs+",
                     help="configuration to run under (default arckfs+)")


def _injector_names():
    from repro.fsck.inject import INJECTORS

    return INJECTORS.keys()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the ArckFS+ paper.",
    )
    subs = parser.add_subparsers(dest="what", required=True)

    from repro.experiments import EXPERIMENTS

    reproduce = subs.add_parser(
        "reproduce", help="regenerate the paper's and this reproduction's "
                          "tables and check their claims (exit 1 on any "
                          "unmet claim)")
    reproduce.add_argument(
        "names", nargs="*", metavar="NAME",
        help="experiments to run (default: all): " + ", ".join(
            f"{e.name} ({e.title})" for e in EXPERIMENTS.values()))
    reproduce.add_argument("--json", action="store_true",
                           help="emit {name: {data, problems}} as JSON")
    reproduce.set_defaults(fn=cmd_reproduce)

    trace = subs.add_parser(
        "trace", help="run a workload with span tracing, write a trace file")
    _add_workload_options(trace)
    trace.add_argument("--out", default="trace.json",
                       help="output path (default trace.json)")
    trace.add_argument("--format", choices=["chrome", "jsonl"],
                       default="chrome",
                       help="chrome://tracing JSON (default) or JSON lines")
    trace.set_defaults(fn=cmd_trace)

    metrics = subs.add_parser(
        "metrics", help="run a workload with metrics, print the registry")
    _add_workload_options(metrics)
    metrics.add_argument("--format", choices=["table", "json", "prom"],
                         default="table",
                         help="output format: human table (default), JSON, "
                              "or Prometheus text exposition")
    metrics.add_argument("--json", action="store_true",
                         help="emit the metrics snapshot as JSON "
                              "(same as --format json)")
    metrics.set_defaults(fn=cmd_metrics)

    profile = subs.add_parser(
        "profile", help="run a workload under the call-path profiler, write "
                        "a collapsed-stack file")
    _add_workload_options(profile)
    profile.add_argument("--out", default="profile.collapsed",
                         help="collapsed-stack output path "
                              "(default profile.collapsed)")
    profile.add_argument("--top", type=int, default=12,
                         help="paths to show in the report (default 12)")
    profile.set_defaults(fn=cmd_profile)

    top = subs.add_parser(
        "top", help="run a workload and watch the metrics registry live")
    _add_workload_options(top)
    top.add_argument("--interval", type=float, default=0.5,
                     help="refresh interval in seconds (default 0.5)")
    top.set_defaults(fn=cmd_top)

    fsck = subs.add_parser(
        "fsck", help="whole-volume check/repair (exit 0 clean, 1 findings, "
                     "2 unrepairable)")
    fsck.add_argument("--image", metavar="PATH",
                      help="check a raw device image instead of building a "
                           "fresh populated volume")
    fsck.add_argument("--files", type=int, default=64,
                      help="files on the built volume (default 64)")
    fsck.add_argument("--dirs", type=int, default=4,
                      help="directories on the built volume (default 4)")
    fsck.add_argument("--devices", type=int, default=1,
                      help="member PM devices for the built volume; >1 "
                           "builds a striped array (default 1)")
    fsck.add_argument("--stripe-pages", type=int, default=1,
                      help="pages per stripe unit on a multi-device "
                           "volume (default 1)")
    fsck.add_argument("--inject", action="append", metavar="CLASS",
                      choices=sorted(_injector_names()),
                      help="plant one corruption of this class before "
                           "checking (repeatable); classes: "
                           + ", ".join(sorted(_injector_names())))
    fsck.add_argument("--repair", action="store_true",
                      help="repair findings and re-check until clean")
    fsck.add_argument("--dump-image", metavar="PATH",
                      help="write the (post-repair) device image to PATH")
    fsck.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    fsck.set_defaults(fn=cmd_fsck)

    serve = subs.add_parser(
        "serve", help="run the multi-tenant volume server (length-prefixed "
                      "JSON-RPC frames, payloads raw; Ctrl-C drains and "
                      "fscks every volume)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7999,
                       help="listen port (default 7999; 0 = ephemeral)")
    serve.add_argument("--tenants", default="t0,t1,t2,t3",
                       help="comma-separated tenant names, or a count "
                            "(default t0,t1,t2,t3); one volume each")
    serve.add_argument("--size", type=int, default=64,
                       help="volume size in MiB (default 64)")
    serve.add_argument("--inodes", type=int, default=4096,
                       help="inode slots per volume (default 4096)")
    serve.add_argument("--max-sessions", type=int, default=1024,
                       help="per-tenant concurrent session cap (default 1024)")
    serve.add_argument("--max-burst", type=int, default=64,
                       help="per-tenant ops one socket read may run; the "
                            "rest of a pipelined burst is refused, "
                            "retryable (default 64)")
    serve.add_argument("--lease", type=float, default=30.0,
                       help="idle-session eviction lease, seconds "
                            "(default 30)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain "
                            "(default: until Ctrl-C)")
    serve.set_defaults(fn=cmd_serve)

    loadgen = subs.add_parser(
        "loadgen", help="closed-loop load generator against a volume server "
                        "(exit 1 on any lost/duplicated/failed op)")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7999)
    loadgen.add_argument("--self", dest="self_serve", action="store_true",
                         help="spin up an in-process server on an ephemeral "
                              "port instead of connecting out")
    loadgen.add_argument("--tenants", default="t0,t1,t2,t3",
                         help="tenant names or a count (must exist "
                              "server-side; default t0,t1,t2,t3)")
    loadgen.add_argument("--clients", type=int, default=25,
                         help="closed-loop clients per tenant (default 25)")
    loadgen.add_argument("--ops", type=int, default=8,
                         help="ops per client after setup (default 8)")
    loadgen.add_argument("--payload", type=int, default=1024,
                         help="write payload bytes (default 1024)")
    loadgen.add_argument("--mix", default="read=4,write=3,open=2,rename=1",
                         help="op mix weights "
                              "(default read=4,write=3,open=2,rename=1)")
    loadgen.add_argument("--connections", type=int, default=8,
                         help="TCP connections per tenant (default 8)")
    loadgen.add_argument("--seed", type=int, default=1337,
                         help="op-stream seed (default 1337)")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    loadgen.set_defaults(fn=cmd_loadgen)

    return parser


def main(argv=None) -> int:
    from repro.errors import ReproError, exit_code_for

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args) or 0
    except ReproError as exc:
        detail = getattr(exc, "strerror", None) or exc
        span = getattr(exc, "span_path", None)
        if getattr(args, "json", False):
            print(json.dumps({
                "error": str(detail),
                "type": type(exc).__name__,
                "code": getattr(exc, "code", None),
                "exit": exit_code_for(exc),
                "span_path": span,
                "trace_id": getattr(exc, "trace_id", None),
            }, indent=2, sort_keys=True))
        else:
            where = f" (at {span})" if span else ""
            print(f"error: {detail}{where}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
