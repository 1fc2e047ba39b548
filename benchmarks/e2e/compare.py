#!/usr/bin/env python3
"""Compare sets of end-to-end result files against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A/            # spread of one set
    python3 benchmarks/e2e/compare.py A/ B/         # B judged against A
    python3 benchmarks/e2e/compare.py A/ --summary trajectory/BENCH_n.json

A set is a directory of ``<workload>.seed<n>.e2e.json`` files as
``run.py --out DIR`` writes them, all of one ``--seconds``.  Per workload
and end-to-end metric the report gives each side's median and quartiles.
For one set it adds the quartile spread against the bound (and the spread
of the two metrics measured every run but not bounded, ``op_p99_us`` and
``recover_s``).  For two sets it adds

* ``pass``       B's median is no worse than A's by more than the bound;
* ``regress``    it is worse by more than the bound;
* ``unresolved`` either side's quartile spread exceeds the bound, so the
  medians cannot tell (unless every B run beats every A run: ``pass``).

The count metrics (:data:`EXACT`) repeat exactly for a seed, so they are
judged seed by seed with bound 0: ``pass`` when no seed the sets share
reads worse in B, ``regress`` when one does, ``unresolved`` when the sets
share no seed.  ``failed_ops_share`` (failed ÷ attempted, from the result
line) has the absolute bound 0: any failed op on either side is a
``regress``.  The other bounds and every direction come from
``BENCHMARK.json`` at the repository root.  Exit status is 1 when anything
regressed, is unresolved or spreads wider than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Metrics a seed fixes exactly: compared per seed, with bound 0.
EXACT = ("fences_per_op", "pm_write_amp")

Records = Dict[str, Dict[int, dict]]  # workload -> seed -> result record


def load(directory: str) -> Records:
    records: Records = {}
    for path in sorted(Path(directory).glob("*.e2e.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], {})[record["seed"]] = record
    if not records:
        sys.exit(f"compare.py: no *.e2e.json result files in {directory}")
    return records


def run_lengths(*sets: Records) -> set:
    return {r["seconds"] for s in sets for by_seed in s.values()
            for r in by_seed.values()}


def values(by_seed: Dict[int, dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in by_seed.values()]


def quartiles(vals: List[float]):
    """(q1, median, q3); a single run has no spread."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    lower = better == "lower"
    worse_by = (med_b - med_a if lower else med_a - med_b) / med_a
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "pass" if all_better else "unresolved"
    return "regress" if worse_by > bound else "pass"


def exact_verdict(a: Dict[int, float], b: Dict[int, float],
                  better: str) -> str:
    """Seed by seed, bound 0."""
    shared = sorted(set(a) & set(b))
    if not shared:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    worse = [s for s in shared if sign * (b[s] - a[s]) > 0]
    same = sum(a[s] == b[s] for s in shared)
    if worse:
        return f"regress (seeds {worse})"
    return f"pass ({same}/{len(shared)} seeds identical)"


def _fmt(vals: List[float]) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="directory of result files (the parent's)")
    ap.add_argument("b", nargs="?", help="directory to judge against it")
    ap.add_argument("--summary", help="write A's medians here as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = load(args.a)
    b = load(args.b) if args.b else None
    if len(run_lengths(a, b or {})) > 1:
        sys.exit("compare.py: the result files are of runs of different "
                 "--seconds; op counts differ, so latencies do too")
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a:
            continue
        print(f"== {workload} ({len(a[workload])} runs)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = values(a[workload], name)
            line = f"{name:14s} {m['unit']:6s} A {_fmt(va)}"
            if b is None:
                ok = spread(va) <= bound
                line += (f"  spread {spread(va):.4f} of bound {bound:g} "
                         f"{'ok' if ok else 'TOO WIDE'}")
                bad += not ok
            elif name in EXACT:
                by_seed = [{seed: r["metrics"][name]["value"]
                            for seed, r in side[workload].items()}
                           for side in (a, b)]
                v = exact_verdict(*by_seed, m["better"])
                line += f"  B {_fmt(values(b[workload], name))}  {v}"
                bad += not v.startswith("pass")
            else:
                vb = values(b[workload], name)
                v = verdict(va, vb, m["better"], bound)
                line += f"  B {_fmt(vb)}  {v}"
                bad += v != "pass"
            print(line)
        failed = [r["failed"] / r["attempted"] for side in (a, b or {})
                  for r in side.get(workload, {}).values()]
        print(f"{'failed_ops_share':14s} ratio  max {max(failed)!r}  "
              f"{'regress' if any(failed) else 'pass'}")
        bad += any(failed)
        if b is None:
            for name in ("op_p99_us", "recover_s"):
                vals = [r["unbounded"][name] for r in a[workload].values()]
                print(f"{name:21s} A {_fmt(vals)}  spread "
                      f"{spread(vals):.4f}, unbounded")
    if args.summary:
        flat = [r for by_seed in a.values() for r in by_seed.values()]
        summary = {
            "commit": flat[0]["host"]["commit"],
            "seeds": sorted({r["seed"] for r in flat}),
            "seconds": flat[0]["seconds"],
            "host": {"nproc": flat[0]["host"]["nproc"],
                     "python": flat[0]["host"]["python"],
                     "calib_ns": statistics.median(
                         r["host"]["calib_ns"] for r in flat),
                     "slowdown": statistics.median(
                         r["host"]["slowdown"] for r in flat)},
            "medians": {w: {m["name"]: statistics.median(
                                values(by_seed, m["name"]))
                            for m in spec["end_to_end"]}
                        for w, by_seed in a.items()}}
        Path(args.summary).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
