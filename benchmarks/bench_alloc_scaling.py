"""Allocator scaling — per-thread page pools vs the global-lock bitmap.

Three deterministic measurements, no wall clocks:

1. **DES thread sweep** — N identical alloc-heavy threads in the virtual-
   time simulator.  The *global* variant serializes every allocation on one
   lock for the full probe-and-persist critical section; the *pooled*
   variant pays an uncontended pool hit per op and takes the shared lock
   once per ``alloc_pool_batch`` refill.  Constants come from the
   calibrated cost model, so throughput is exact and host-independent.
2. **Functional lock/fence counts** — an allocation stream driven through
   the real :class:`~repro.pm.allocator.PageAllocator` on a simulated
   device; the allocator's own counters prove the batching (one lock + one
   fence per refill instead of per page).
3. **Persist calls per 1 MiB pwrite** — a whole LibFS stack on the
   extent-batched data path; ``pm.persist_calls`` (sfences) must be at
   least 4x below the seed per-page path's.

The seed allocator and the seed per-page write path no longer exist in the
tree; their rows (``functional.global``, ``persist.legacy``) are the values
frozen in ``baselines/alloc_scaling.json`` and are carried through
unchanged.

Run as a script for the CI smoke check:

    python benchmarks/bench_alloc_scaling.py --smoke            # compare
    python benchmarks/bench_alloc_scaling.py --write-baseline   # regenerate
"""

import argparse
import json
import os
import sys

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.core.config import ArckConfig
from repro.core.mkfs import mkfs
from repro.perf.costmodel import COST
from repro.perf.simulator import Experiment
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice

THREADS = (1, 2, 4, 8)
HORIZON_NS = 1_000_000.0  # 1 ms of virtual time per data point
ALLOC_OPS = 1024          # pages allocated in the functional measurement
WRITE_BYTES = 1 << 20     # 1 MiB sequential pwrite

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "alloc_scaling.json")

#: Relative slack for the smoke comparison.  The numbers are deterministic
#: virtual-time / counter values; the tolerance only absorbs intentional
#: cost-model recalibrations smaller than a real regression.
SMOKE_RTOL = 0.02

POOLED = ArckConfig(name="pooled")


def frozen_baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------- #
# 1. DES thread sweep
# --------------------------------------------------------------------------- #


def _global_stream(exp, tid):
    lk = exp.lock("alloc")
    while True:
        yield [
            ("delay", COST.op_cpu),
            ("lock", lk),
            ("delay", COST.alloc_global_time()),
            ("unlock", lk),
        ]


def _pooled_stream(exp, tid):
    lk = exp.lock("alloc")
    batch = COST.alloc_pool_batch
    n = 0
    while True:
        phases = [("delay", COST.op_cpu + COST.alloc_pool_hit)]
        if n % batch == 0:  # the refill this batch rides on
            phases += [
                ("lock", lk),
                ("delay", COST.alloc_refill_time(batch)),
                ("unlock", lk),
            ]
        n += 1
        yield phases


def des_sweep():
    """{variant: {nthreads: Mops}} from the virtual-time simulator."""
    out = {}
    for variant, stream in (("global", _global_stream),
                            ("pooled", _pooled_stream)):
        per = {}
        for n in THREADS:
            exp = Experiment()
            exp.run_threads(n, stream, HORIZON_NS)
            per[n] = exp.throughput_mops(HORIZON_NS)
        out[variant] = per
    return out


# --------------------------------------------------------------------------- #
# 2. Functional lock/fence counts
# --------------------------------------------------------------------------- #


def functional_counts():
    """Drive ALLOC_OPS single-page allocations through the real allocator."""
    device = PMDevice(16 * 1024 * 1024, crash_tracking=False)
    geom = mkfs(device, inode_count=128)
    alloc = PageAllocator(device, geom)
    fences0 = device.stats.fences
    for _ in range(ALLOC_OPS):
        alloc.alloc(zero=False)
    return {
        "ops": ALLOC_OPS,
        "lock_acquires": alloc.stats.lock_acquires,
        "fences": device.stats.fences - fences0,
        "pool_refills": alloc.stats.pool_refills,
    }


# --------------------------------------------------------------------------- #
# 3. Persist calls per 1 MiB pwrite
# --------------------------------------------------------------------------- #


def persist_per_write():
    """sfence count of one 1 MiB sequential pwrite."""
    payload = b"\xa5" * WRITE_BYTES
    vol = Volume.create(8 * 1024 * 1024,
                        VolumeConfig(config=POOLED, inode_count=64))
    fs = vol.session("bench-alloc", uid=0).fs
    fd = fs.open("/big.dat", create=True)
    fences0 = vol.device.stats.fences
    fs.pwrite(fd, payload, 0)
    out = {
        "persist_calls": vol.device.stats.fences - fences0,
        "write_extents": fs.stats.write_extents,
    }
    assert fs.pread(fd, WRITE_BYTES, 0) == payload
    fs.release_all()
    return out


# --------------------------------------------------------------------------- #
# Reporting / smoke plumbing
# --------------------------------------------------------------------------- #


def collect():
    sweep = des_sweep()
    frozen = frozen_baseline()
    return {
        "des_mops": {v: {str(n): mops for n, mops in per.items()}
                     for v, per in sweep.items()},
        "functional": {"global": frozen["functional"]["global"],
                       "pooled": functional_counts()},
        "persist": {"legacy": frozen["persist"]["legacy"],
                    "extent": persist_per_write()},
    }


def render(results) -> str:
    des = results["des_mops"]
    fn = results["functional"]
    pw = results["persist"]
    lines = [
        "== allocator scaling: global lock vs per-thread pools ==",
        "",
        f"{'threads':<9}{'global Mops':>13}{'pooled Mops':>13}{'speedup':>9}",
        "-" * 44,
    ]
    for n in THREADS:
        g = des["global"][str(n)]
        p = des["pooled"][str(n)]
        lines.append(f"{n:<9}{g:>13.2f}{p:>13.2f}{p / g:>8.1f}x")
    lines += [
        "",
        f"functional, {ALLOC_OPS} allocs:",
        f"  global (frozen): {fn['global']['lock_acquires']} lock acquires, "
        f"{fn['global']['fences']} fences",
        f"  pooled: {fn['pooled']['lock_acquires']} lock acquires, "
        f"{fn['pooled']['fences']} fences "
        f"({fn['pooled']['pool_refills']} refills)",
        "",
        "1 MiB sequential pwrite:",
        f"  seed per-page (frozen): {pw['legacy']['persist_calls']} "
        "persist calls",
        f"  extent-batched:    {pw['extent']['persist_calls']} persist calls "
        f"({pw['extent']['write_extents']} extent(s)) — "
        f"{pw['legacy']['persist_calls'] / pw['extent']['persist_calls']:.0f}x"
        " fewer",
    ]
    return "\n".join(lines)


def smoke_compare(results, baseline) -> list:
    """Regressions of `results` against `baseline`; empty == pass."""
    problems = []
    for n in ("1", str(THREADS[-1])):
        got = results["des_mops"]["pooled"][n]
        want = baseline["des_mops"]["pooled"][n]
        if got < want * (1 - SMOKE_RTOL):
            problems.append(
                f"pooled DES throughput at {n} thread(s) regressed: "
                f"{got:.3f} Mops < baseline {want:.3f}")
    for key in ("lock_acquires", "fences"):
        got = results["functional"]["pooled"][key]
        want = baseline["functional"]["pooled"][key]
        if got > want * (1 + SMOKE_RTOL):
            problems.append(
                f"pooled {key} regressed: {got} > baseline {want}")
    got = results["persist"]["extent"]["persist_calls"]
    want = baseline["persist"]["extent"]["persist_calls"]
    if got > want * (1 + SMOKE_RTOL):
        problems.append(
            f"extent-path persist calls regressed: {got} > baseline {want}")
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
        os.path.join(results_dir, "alloc_scaling.metrics.json"),
        obs.metrics.snapshot(), bench="bench_alloc_scaling")
    obs.profiler.write_collapsed(
        os.path.join(results_dir, "alloc_scaling.collapsed"), weight="sim")

    if args.write_baseline:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n[baseline written to {BASELINE_PATH}]")
        return 0
    if args.smoke:
        problems = smoke_compare(results, frozen_baseline())
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


def test_alloc_scaling(benchmark):
    from conftest import save_and_print

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    des = results["des_mops"]

    # The pooled path must beat the global lock >= 3x at 8 threads, and the
    # global path must be visibly lock-bound (flat beyond 2 threads).
    top = str(THREADS[-1])
    assert des["pooled"][top] / des["global"][top] >= 3.0, des
    assert des["global"][top] < des["global"]["2"] * 1.5, des
    # Pooled throughput scales with threads.
    assert des["pooled"][top] > des["pooled"]["1"] * 3.0, des

    # Batching in the real allocator: one lock/refill per batch, not per op
    # (the seed allocator's per-op counts are the frozen ``global`` row).
    fn = results["functional"]
    assert fn["global"]["lock_acquires"] >= ALLOC_OPS
    assert fn["pooled"]["lock_acquires"] <= ALLOC_OPS // 8
    assert fn["pooled"]["fences"] <= fn["global"]["fences"] // 8

    # Extent-batched data path: >= 4x fewer persist calls per 1 MiB than
    # the frozen seed per-page row.
    pw = results["persist"]
    ratio = pw["legacy"]["persist_calls"] / pw["extent"]["persist_calls"]
    assert ratio >= 4.0, pw
    assert pw["extent"]["write_extents"] >= 1

    save_and_print("alloc_scaling", render(results))


if __name__ == "__main__":
    sys.exit(main())
