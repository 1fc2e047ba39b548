"""Verification scaling — the pipelined verifier on the Table 4 round-trip.

Two deterministic measurements, no wall clocks:

1. **Modeled worker sweep** — per-transfer verification time of the 256 KiB
   shared-file ping-pong under the calibrated cost model's pipeline helper
   (serial enumerate/commit + the slowest check shard), for 1..8 workers.
   The paper's serial verifier is the 1-worker row.
2. **Functional equivalence + critical path** — the same ping-pong driven
   through the real kernel twice, with 1 and with 8 verifier workers.  The
   kernel's verified-byte counters must be identical (the pipeline changes
   *scheduling*, never the checks) while the pipeline's unit accounting
   shows the critical path shrinking by the shard factor.

Run as a script for the CI smoke check:

    python benchmarks/bench_sharing_scaling.py --smoke            # compare
    python benchmarks/bench_sharing_scaling.py --write-baseline   # regenerate
"""

import argparse
import json
import os
import sys

from repro import obs
from repro.workloads.sharing import run_functional_sharing, verification_scaling

WORKERS = (1, 2, 4, 8)
FILE_KIB = 256           # the Table 4 shared-file round-trip
ROUNDS = 4               # ownership bounces in the functional measurement
TARGET_SPEEDUP = 2.5     # acceptance floor at 8 workers

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "sharing_scaling.json")

#: Relative slack for the smoke comparison.  The numbers are deterministic
#: model/counter values; the tolerance only absorbs intentional cost-model
#: recalibrations smaller than a real regression.
SMOKE_RTOL = 0.02


# --------------------------------------------------------------------------- #
# 1. Modeled worker sweep
# --------------------------------------------------------------------------- #


def modeled_sweep():
    """{workers: {ns_per_transfer, speedup}} from the calibrated model."""
    rows = verification_scaling(file_kib=FILE_KIB, workers=WORKERS)
    return {str(r["workers"]): {"ns_per_transfer": r["ns_per_transfer"],
                                "speedup": r["speedup"]}
            for r in rows}


# --------------------------------------------------------------------------- #
# 2. Functional equivalence + critical-path accounting
# --------------------------------------------------------------------------- #


def functional_pipeline():
    """The real ping-pong with 1 vs 8 verifier workers."""
    out = {}
    for w in (1, WORKERS[-1]):
        r = run_functional_sharing(file_kib=FILE_KIB, rounds=ROUNDS,
                                   verify_workers=w)
        out[f"w{w}"] = {
            "bytes_verified_per_transfer": r["bytes_verified_per_transfer"],
            "verifications": r["verifications"],
            "total_units": r["verify_total_units"],
            "critical_units": r["verify_critical_units"],
            "shard_jobs": r["verify_shard_jobs"],
        }
    return out


# --------------------------------------------------------------------------- #
# Reporting / smoke plumbing
# --------------------------------------------------------------------------- #


def critical_path():
    """The 8-worker verify pipeline's slowest-shard breakdown.

    Read from the call-path profiler after the functional run; ``None`` when
    profiling is off (the pytest conftest and ``main`` both enable it).
    """
    pipe = obs.profiler.pipelines().get(f"verify.w{WORKERS[-1]}")
    return pipe.critical_path() if pipe is not None else None


def collect():
    return {
        "modeled": modeled_sweep(),
        "functional": functional_pipeline(),
        "critical_path": critical_path(),
    }


def render(results) -> str:
    mo = results["modeled"]
    fn = results["functional"]
    lines = [
        "== verification scaling: pipelined ownership-transfer verifier ==",
        "",
        f"modeled, {FILE_KIB} KiB transfer:",
        f"{'workers':<9}{'ns/transfer':>13}{'speedup':>9}",
        "-" * 31,
    ]
    for w in WORKERS:
        row = mo[str(w)]
        lines.append(f"{w:<9}{row['ns_per_transfer']:>13.0f}"
                     f"{row['speedup']:>8.2f}x")
    w1, w8 = fn["w1"], fn[f"w{WORKERS[-1]}"]
    ratio = (w8["total_units"] / w8["critical_units"]
             if w8["critical_units"] else 1.0)
    lines += [
        "",
        f"functional, {ROUNDS} ownership bounces:",
        f"  serial (1 worker):    "
        f"{w1['bytes_verified_per_transfer']:,.0f} B verified/transfer, "
        f"{w1['shard_jobs']} shard jobs",
        f"  pipelined ({WORKERS[-1]} workers): "
        f"{w8['bytes_verified_per_transfer']:,.0f} B verified/transfer, "
        f"{w8['shard_jobs']} shard jobs, "
        f"critical path {ratio:.1f}x shorter",
    ]
    cp = results.get("critical_path")
    if cp:
        lines += [
            "",
            f"verify pipeline critical path ({cp['workers']} workers):",
            f"  slowest worker (shard {cp['worker']}): "
            f"{cp['total_ns']:,.0f} ns simulated, "
            f"{cp['attributed_fraction'] * 100.0:.1f}% attributed to "
            "named stages",
        ]
        for stage in sorted(cp["stages"], key=cp["stages"].get, reverse=True):
            lines.append(f"    {stage:<16}{cp['stages'][stage]:>12,.0f} ns")
        if cp["serial_ns"]:
            lines.append(
                f"  serial stages: {cp['serial_ns']:,.0f} ns "
                f"({', '.join(sorted(cp['serial_stages']))})")
    return "\n".join(lines)


def smoke_compare(results, baseline) -> list:
    """Regressions of `results` against `baseline`; empty == pass."""
    problems = []
    top = str(WORKERS[-1])
    got = results["modeled"][top]["speedup"]
    want = baseline["modeled"][top]["speedup"]
    if got < TARGET_SPEEDUP:
        problems.append(
            f"modeled speedup at {top} workers below target: "
            f"{got:.2f}x < {TARGET_SPEEDUP}x")
    if got < want * (1 - SMOKE_RTOL):
        problems.append(
            f"modeled speedup at {top} workers regressed: "
            f"{got:.2f}x < baseline {want:.2f}x")
    fn = results["functional"]
    w1, w8 = fn["w1"], fn[f"w{top}"]
    if w1["bytes_verified_per_transfer"] != w8["bytes_verified_per_transfer"]:
        problems.append(
            "pipelined verifier checked different bytes than serial: "
            f"{w8['bytes_verified_per_transfer']} != "
            f"{w1['bytes_verified_per_transfer']}")
    ratio = (w8["total_units"] / w8["critical_units"]
             if w8["critical_units"] else 1.0)
    if ratio < TARGET_SPEEDUP:
        problems.append(
            f"functional critical-path ratio below target: "
            f"{ratio:.2f}x < {TARGET_SPEEDUP}x")
    cp = results.get("critical_path")
    if not cp:
        problems.append("no verify-pipeline critical path recorded "
                        "(profiler disabled during collect?)")
    elif cp["attributed_fraction"] < 0.9:
        problems.append(
            "verify critical path under-attributed: "
            f"{cp['attributed_fraction'] * 100.0:.1f}% of the slowest "
            "worker's time explained by named stages (< 90%)")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="compare against the checked-in baseline; "
                         "non-zero exit on regression")
    ap.add_argument("--write-baseline", action="store_true",
                    help="regenerate the checked-in baseline JSON")
    args = ap.parse_args(argv)

    obs.reset()
    obs.enable(trace=False, profile=True)
    results = collect()
    obs.disable()
    print(render(results))

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    obs.write_snapshot(
        os.path.join(results_dir, "sharing_scaling.metrics.json"),
        obs.metrics.snapshot(), bench="bench_sharing_scaling")
    obs.profiler.write_collapsed(
        os.path.join(results_dir, "sharing_scaling.collapsed"), weight="sim")

    if args.write_baseline:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n[baseline written to {BASELINE_PATH}]")
        return 0
    if args.smoke:
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        problems = smoke_compare(results, baseline)
        if problems:
            print("\nSMOKE FAIL:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("\nsmoke: no regression vs baseline")
    return 0


# --------------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------------- #


def test_sharing_scaling(benchmark):
    from conftest import save_and_print

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    mo = results["modeled"]

    # The pipeline must model >= 2.5x verification throughput at 8 workers
    # and improve monotonically with worker count.
    assert mo[str(WORKERS[-1])]["speedup"] >= TARGET_SPEEDUP, mo
    speedups = [mo[str(w)]["speedup"] for w in WORKERS]
    assert speedups == sorted(speedups), mo
    assert mo["1"]["speedup"] == 1.0

    # Equivalence: sharded scheduling checks exactly the serial bytes.
    fn = results["functional"]
    w1, w8 = fn["w1"], fn[f"w{WORKERS[-1]}"]
    assert w1["bytes_verified_per_transfer"] == w8["bytes_verified_per_transfer"], fn
    assert w1["verifications"] == w8["verifications"], fn
    assert w1["shard_jobs"] == 0  # 1 worker degenerates to the serial path
    assert w8["shard_jobs"] > 0
    assert w8["total_units"] / w8["critical_units"] >= TARGET_SPEEDUP, fn

    # Critical-path attribution: the profiler must explain >= 90% of the
    # slowest verify worker's simulated time by named pipeline stages.
    cp = results["critical_path"]
    assert cp is not None
    assert cp["workers"] == WORKERS[-1], cp
    assert cp["attributed_fraction"] >= 0.9, cp
    assert "check_pages" in cp["stages"], cp
    assert {"enumerate", "commit"} <= set(cp["serial_stages"]), cp

    save_and_print("sharing_scaling", render(results))


if __name__ == "__main__":
    sys.exit(main())
