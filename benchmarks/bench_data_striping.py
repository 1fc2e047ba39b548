"""Data striping — sequential-I/O bandwidth scaling with device count.

Two deterministic measurements, no wall clocks:

1. **Modeled bandwidth sweep** — one 4 MiB delegated extent write/read at
   1/2/4/8 member devices from the calibrated cost model
   (`costmodel.delegate_io_time`): every member drives its share of the
   extent in parallel at the bandwidth its delegation streams achieve, so
   bandwidth scales with device count until the per-extent fixed costs
   dominate.  The acceptance bar is >= 3x modeled sequential-write
   bandwidth at 4 devices vs 1.
2. **Functional fan-out** — a real 4 MiB pwrite through the whole stack
   (LibFS -> extent batch -> ``PMDevice.ntstore_scatter``) on a 4-member
   device; the per-member ``PMStats`` in ``device.members`` prove every
   member stored ~1/4 of the bytes and took its own persist calls.

Run as a script for the CI smoke check:

    python benchmarks/bench_data_striping.py --smoke            # compare
    python benchmarks/bench_data_striping.py --write-baseline   # regenerate
"""

import argparse
import json
import os
import sys

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.perf.costmodel import COST

DEVICES = (1, 2, 4, 8)
EXTENT_BYTES = 4 << 20     # one 4 MiB delegated extent
WRITE_BYTES = 4 << 20      # functional pwrite size
STRIPE_PAGES = 4
DELEGATION_WORKERS = 2     # modeled workers per device (cost model only)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "data_striping.json")

#: Relative slack for the smoke comparison (cost-model recalibrations only;
#: the values themselves are deterministic).
SMOKE_RTOL = 0.02


# --------------------------------------------------------------------------- #
# 1. Modeled bandwidth sweep
# --------------------------------------------------------------------------- #


def modeled_sweep():
    """{op: {ndev: GB/s}} for one EXTENT_BYTES delegated extent."""
    out = {}
    for op, read in (("write", False), ("read", True)):
        per = {}
        for ndev in DEVICES:
            ns = COST.delegate_io_time(
                EXTENT_BYTES, devices=ndev,
                workers_per_device=DELEGATION_WORKERS, read=read)
            per[ndev] = EXTENT_BYTES / ns  # bytes/ns == GB/s
        out[op] = per
    return out


# --------------------------------------------------------------------------- #
# 2. Functional fan-out
# --------------------------------------------------------------------------- #


def functional_fanout():
    """A real 4 MiB pwrite on a 4-member device; per-member counters."""
    vc = VolumeConfig(devices=4, stripe_pages=STRIPE_PAGES, inode_count=128)
    vol = Volume.create(32 << 20, vc)
    payload = bytes(range(256)) * (WRITE_BYTES // 256)
    with vol.session("bench-striping") as sess:
        fd = sess.open("/big.dat", create=True)
        before = [m.stats.snapshot() for m in vol.device.members]
        sess.pwrite(fd, payload, 0)
        after = [m.stats.snapshot() for m in vol.device.members]
        assert sess.pread(fd, WRITE_BYTES, 0) == payload
    deltas = [a.diff(b) for a, b in zip(after, before)]
    vol.close()
    return {
        "devices": vol.device.devices,
        "bytes_stored": [d.bytes_stored for d in deltas],
        "ntstores": [d.ntstores for d in deltas],
        "persist_calls": [d.fences for d in deltas],
    }


# --------------------------------------------------------------------------- #
# Reporting / smoke plumbing
# --------------------------------------------------------------------------- #


def collect():
    return {
        "modeled_gbps": {op: {str(n): bw for n, bw in per.items()}
                         for op, per in modeled_sweep().items()},
        "fanout": functional_fanout(),
    }


def render(results) -> str:
    bw = results["modeled_gbps"]
    fo = results["fanout"]
    one_w = bw["write"]["1"]
    lines = [
        "== data striping: bandwidth vs member devices "
        f"({EXTENT_BYTES >> 20} MiB extents, "
        f"{DELEGATION_WORKERS} workers/device) ==",
        "",
        f"{'devices':<9}{'write GB/s':>12}{'read GB/s':>12}{'w-speedup':>11}",
        "-" * 44,
    ]
    for n in DEVICES:
        w = bw["write"][str(n)]
        r = bw["read"][str(n)]
        lines.append(f"{n:<9}{w:>12.2f}{r:>12.2f}{w / one_w:>10.1f}x")
    total = sum(fo["bytes_stored"])
    shares = ", ".join(f"{b / total:.0%}" for b in fo["bytes_stored"])
    lines += [
        "",
        f"functional {WRITE_BYTES >> 20} MiB pwrite on {fo['devices']} devices:",
        f"  byte shares per device: {shares}",
        f"  ntstores per device:    {fo['ntstores']}",
        f"  persist calls per device: {fo['persist_calls']}",
    ]
    return "\n".join(lines)


def smoke_compare(results, baseline) -> list:
    """Regressions of `results` against `baseline`; empty == pass."""
    problems = []
    for op in ("write", "read"):
        for n in ("1", "4"):
            got = results["modeled_gbps"][op][n]
            want = baseline["modeled_gbps"][op][n]
            if got < want * (1 - SMOKE_RTOL):
                problems.append(
                    f"modeled {op} bandwidth at {n} device(s) regressed: "
                    f"{got:.3f} GB/s < baseline {want:.3f}")
    got = min(results["fanout"]["persist_calls"])
    want = min(baseline["fanout"]["persist_calls"])
    if got < 1 or got < want:
        problems.append(
            f"per-device persist fan-out regressed: min {got} "
            f"< baseline min {want}")
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
        os.path.join(results_dir, "data_striping.metrics.json"),
        obs.metrics.snapshot(), bench="bench_data_striping")
    obs.profiler.write_collapsed(
        os.path.join(results_dir, "data_striping.collapsed"), weight="sim")

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


def test_data_striping(benchmark):
    from conftest import save_and_print

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    bw = results["modeled_gbps"]

    # The acceptance bar: >= 3x modeled sequential-write bandwidth at 4
    # devices vs 1, and bandwidth monotone in device count.
    assert bw["write"]["4"] / bw["write"]["1"] >= 3.0, bw
    for lo, hi in zip(DEVICES, DEVICES[1:]):
        assert bw["write"][str(hi)] > bw["write"][str(lo)], bw

    # Functional fan-out: every member stored a share and took its own
    # persist calls; shares within 2x of each other (near-equal striping).
    fo = results["fanout"]
    assert all(b > 0 for b in fo["bytes_stored"]), fo
    assert all(f > 0 for f in fo["persist_calls"]), fo
    assert max(fo["bytes_stored"]) < 2 * min(fo["bytes_stored"]), fo

    save_and_print("data_striping", render(results))


if __name__ == "__main__":
    sys.exit(main())
