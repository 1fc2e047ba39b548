"""Transaction commit — batched redo-log durability vs per-op persistence.

The group-commit argument, measured two ways, no wall clocks:

1. **Functional fence counts** — the same op batch driven through a real
   volume twice.  *Per-op*: each ``write_file`` persists on its own
   (commit-marker protocol, bitmap bits, data flush — ~8 fences per op).
   *Transaction*: the ops buffer in a :class:`~repro.tx.Tx`; durability is
   reached at the *seal* — one streamed redo log under a single fence plus
   the 8-byte head publish — so fences-to-durability stay **constant** in
   the batch size (the LevelDB ``WriteBatch`` shape: one log write + one
   sync per batch, not per op).
2. **DES modeled sweep** — durability latency per batch from the
   calibrated cost model, with the fence counts *measured in (1)* plugged
   in: per-op = N x (op cpu + PM write + measured-fences x fence); tx =
   N x (op cpu + PM write) + constant seal fences.  Deterministic and
   host-independent; the batched commit must clear 2x from batch size 4.

Run as a script for the CI smoke check:

    python benchmarks/bench_tx_commit.py --smoke            # compare
    python benchmarks/bench_tx_commit.py --write-baseline   # regenerate
"""

import argparse
import json
import os
import sys

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.perf.costmodel import COST

BATCHES = (1, 4, 16, 64)
PAYLOAD = b"\xa5" * 256

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "tx_commit.json")

#: The numbers are deterministic fence counts / virtual-time values; the
#: tolerance only absorbs intentional cost-model recalibrations.
SMOKE_RTOL = 0.02


# --------------------------------------------------------------------------- #
# 1. Functional fence counts
# --------------------------------------------------------------------------- #


def _fresh_session():
    vol = Volume.create(32 * 1024 * 1024, VolumeConfig(inode_count=256))
    return vol, vol.session("bench-tx")


def functional_counts():
    """{batch: {per_op_fences, tx_seal_fences, tx_total_fences, log_pages}}.

    ``tx_seal_fences`` is the durability cost: fences issued between commit
    entry and the seal completing (captured via the ``tx.post_seal``
    failpoint).  Apply/checkpoint fences after it are deferred work, not
    latency the caller waits on for durability.
    """
    out = {}
    for n in BATCHES:
        vol, s = _fresh_session()
        f0 = vol.device.stats.fences
        for i in range(n):
            s.write_file(f"/f{i}", PAYLOAD)
        per_op = vol.device.stats.fences - f0
        s.shutdown()

        vol, s = _fresh_session()
        tx = s.transaction()
        for i in range(n):
            tx.write_file(f"/f{i}", PAYLOAD)
        at_seal = {}
        f0 = vol.device.stats.fences
        failpoints.install(
            "tx.post_seal",
            lambda _ctx, v=vol, cap=at_seal: cap.__setitem__(
                "fences", v.device.stats.fences))
        try:
            stats = tx.commit()
        finally:
            failpoints.remove("tx.post_seal")
        total = vol.device.stats.fences - f0
        s.shutdown()
        out[str(n)] = {
            "per_op_fences": per_op,
            "tx_seal_fences": at_seal["fences"] - f0,
            "tx_total_fences": total,
            "log_pages": stats["log_pages"],
            "log_bytes": stats["log_bytes"],
        }
        obs.count("tx.bench_batches")
    return out


# --------------------------------------------------------------------------- #
# 2. DES modeled durability-latency sweep
# --------------------------------------------------------------------------- #


def modeled_sweep(functional):
    """{batch: {per_op_ns, tx_ns, speedup}} — latency to durability.

    Fence counts come from the functional measurement, so the model tracks
    the implementation instead of hand-picked constants: if a code change
    adds fences to the seal path, the modeled speedup drops with it.
    """
    out = {}
    for n in BATCHES:
        fn = functional[str(n)]
        work = COST.op_cpu + COST.pm_write_lat
        per_op_ns = n * work + fn["per_op_fences"] * COST.fence
        tx_ns = n * work + fn["tx_seal_fences"] * COST.fence
        out[str(n)] = {
            "per_op_ns": per_op_ns,
            "tx_ns": tx_ns,
            "speedup": per_op_ns / tx_ns,
        }
        obs.metrics.gauge("tx.bench_speedup", batch=n).set(per_op_ns / tx_ns)
    return out


# --------------------------------------------------------------------------- #
# Reporting / smoke plumbing
# --------------------------------------------------------------------------- #


def collect():
    functional = functional_counts()
    return {
        "functional": functional,
        "modeled": modeled_sweep(functional),
    }


def render(results) -> str:
    fn = results["functional"]
    md = results["modeled"]
    lines = [
        "== transaction commit: batched redo log vs per-op persistence ==",
        "",
        f"{'batch':<7}{'per-op fences':>15}{'tx seal fences':>16}"
        f"{'modeled speedup':>17}",
        "-" * 55,
    ]
    for n in BATCHES:
        f = fn[str(n)]
        m = md[str(n)]
        lines.append(
            f"{n:<7}{f['per_op_fences']:>15}{f['tx_seal_fences']:>16}"
            f"{m['speedup']:>16.2f}x")
    top = fn[str(BATCHES[-1])]
    lines += [
        "",
        f"at batch {BATCHES[-1]}: durability costs {top['tx_seal_fences']} "
        f"fence(s) for the whole transaction "
        f"({top['log_pages']} log page(s), {top['log_bytes']} bytes) vs "
        f"{top['per_op_fences']} per-op — the seal is one 8-byte atomic "
        "publish.",
    ]
    return "\n".join(lines)


def smoke_compare(results, baseline) -> list:
    """Regressions of `results` against `baseline`; empty == pass."""
    problems = []
    for n in BATCHES:
        got = results["functional"][str(n)]["tx_seal_fences"]
        want = baseline["functional"][str(n)]["tx_seal_fences"]
        if got > want:
            problems.append(
                f"fences-to-durability at batch {n} regressed: "
                f"{got} > baseline {want}")
        got = results["modeled"][str(n)]["speedup"]
        want = baseline["modeled"][str(n)]["speedup"]
        if got < want * (1 - SMOKE_RTOL):
            problems.append(
                f"modeled speedup at batch {n} regressed: "
                f"{got:.2f}x < baseline {want:.2f}x")
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
        os.path.join(results_dir, "tx_commit.metrics.json"),
        obs.metrics.snapshot(), bench="bench_tx_commit")
    obs.profiler.write_collapsed(
        os.path.join(results_dir, "tx_commit.collapsed"), weight="sim")

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
                print(f"  {p}")
            return 1
        print("\nsmoke: OK (within tolerance of checked-in baseline)")
    return 0


# --------------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------------- #


def test_tx_commit(benchmark):
    from conftest import save_and_print

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    fn = results["functional"]
    md = results["modeled"]

    # Durability cost of a commit is constant in the batch size...
    seal_fences = {fn[str(n)]["tx_seal_fences"] for n in BATCHES}
    assert len(seal_fences) == 1, fn
    assert seal_fences.pop() <= 4, fn
    # ...while per-op persistence pays fences linearly.
    assert fn[str(BATCHES[-1])]["per_op_fences"] >= \
        8 * fn[str(BATCHES[0])]["per_op_fences"], fn

    # The acceptance bar: batched commit >= 2x from batch size 4 on the
    # modeled sweep, and monotonically improving with the batch.
    assert md["4"]["speedup"] >= 2.0, md
    speedups = [md[str(n)]["speedup"] for n in BATCHES]
    assert speedups == sorted(speedups), md
    assert md[str(BATCHES[-1])]["speedup"] >= 2.5, md

    save_and_print("tx_commit", render(results))


if __name__ == "__main__":
    sys.exit(main())
