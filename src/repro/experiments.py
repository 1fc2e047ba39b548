"""The paper's and this reproduction's experiments, one definition each,
and the paper's numbers.

Every section of EXPERIMENTS.md is one :class:`Experiment`:

* ``run()`` regenerates the data (JSON-ready: string keys, numbers, lists)
  from the DES (:mod:`repro.perf.runner`), the workloads, the Table 1
  bug harness and counters read off the functional stack;
* ``render(data)`` is the text ``benchmarks/results/<name>.txt`` holds;
* ``check(data)`` is the list of claims the data does not meet (empty
  means reproduced).  It is pure, so a hand-made datum exercises it.

The paper's eight come first; ``alloc``, ``reads``, ``tx``, ``striping``,
``ablation`` and ``fsck`` check what this reproduction adds.  Their counts
are deterministic, so the checked-in tables pin every one exactly.

``python -m repro reproduce [NAME ...]`` and ``benchmarks/bench_paper.py``
are the two consumers; the paper-target tests import the reference values
below.  Tolerances are this reproduction's, the values are the paper's.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.fsck.findings import F_PAGE_DOUBLE_USE, F_PAGE_UNALLOCATED, TORN_CLASSES
from repro.perf.costmodel import COST
from repro.perf.runner import run_workload, sweep, table2_sweep
from repro.perf.simulator import Experiment as Simulation
from repro.perf.stats import format_table, geomean
from repro.pm.crash import explore
from repro.pm.layout import PAGE_SIZE
from repro.workloads.fio import FIO_WORKLOADS
from repro.workloads.fxmark import DATA_WORKLOADS, FXMARK, METADATA_WORKLOADS

# -- The paper's numbers ---------------------------------------------------- #

#: Table 1: the ArckFS+ patch for each bug, by paper section.
TABLE1_PATCHES = {
    "4.1": "Use commit for directory relocation",
    "4.2": "Add a memory fence",
    "4.3": "Acquire locks on inode release",
    "4.4": "Extend bucket lock to PM",
    "4.5": "Introduce RCU to the bucket",
    "4.6": "Add a lock and descendant check",
}

#: Figure 3 / §5.1: single-thread ArckFS+ / ArckFS (percent).
FIG3_PAPER = {"open": 83.3, "create": 92.8, "delete": 92.2}

#: Table 2: ArckFS+ / ArckFS per FxMark metadata workload at 48 threads.
TABLE2_PAPER = {
    "DWTL": 101.25, "MRPL": 84.47, "MRPM": 92.09, "MRPH": 89.18,
    "MRDL": 75.45, "MRDM": 95.94, "MWCL": 99.71, "MWCM": 91.6,
    "MWUL": 118.82, "MWUM": 154.70, "MWRL": 92.25, "MWRM": 90.66,
}
#: §5.2's headline: the geometric mean of Table 2.
TABLE2_PAPER_GEOMEAN = 97.23

#: §5.3 Filebench: ArckFS+ / ArckFS (percent) by (personality, threads).
FILEBENCH_PAPER = {("webproxy", 1): 101.1, ("webproxy", 16): 97.1,
                   ("varmail", 1): 102.1, ("varmail", 16): 98.8}

#: Table 4, one row per scenario (NOVA, ArckFS+, ArckFS+ with a trust
#: group): GiB/s for the writes, µs per create.
TABLE4_PAPER = {
    (system, scenario): value
    for scenario, row in (("4KB-write 2MB", (1.18, 2.07, 2.01)),
                          ("4KB-write 1GB", (1.16, 0.41, 1.80)),
                          ("Create 10", (6.38, 10.18, 0.76)),
                          ("Create 100", (6.08, 10.64, 2.25)))
    for system, value in zip(("nova", "arckfs+", "arckfs+-trust-group"), row)}

# -- The seed's numbers ------------------------------------------------------ #
# Paths this reproduction replaced and deleted, measured before they went.

#: The seed global-lock allocator, per ALLOC_OPS single-page allocations:
#: one lock acquisition and one fence each.
SEED_ALLOC = {"lock_acquires": 1024, "fences": 1024}
#: The seed per-page write path, for one 1 MiB sequential pwrite.
SEED_PWRITE_1MIB = {"fences": 519, "write_extents": 256}

# -- Sweeps ------------------------------------------------------------------ #

SYSTEMS = ["arckfs+", "arckfs", "ext4", "pmfs", "nova", "odinfs", "winefs",
           "splitfs", "strata"]
#: The baselines Fig. 4's shape claim has ArckFS lead at 48 threads.
FIG4_RIVALS = ("ext4", "pmfs", "nova", "winefs", "splitfs", "strata")
FIG3_META_OPS = ["create", "open", "delete", "rename", "stat"]
FIG3_DATA_OPS = ["read-4k", "write-4k"]
FIG4_THREADS = [1, 4, 16, 48]
#: A reduced virtual-time horizon keeps the 432-run sweep fast; Table 2
#: carries the calibrated full-horizon ratios.
FIG4_HORIZON_NS = 500_000.0
FIO_THREADS = [1, 4, 8, 24, 48]
FILEBENCH_SYSTEMS = ["arckfs+", "arckfs", "ext4", "nova", "strata"]
FILEBENCH_THREADS = [1, 16]
DBBENCH_WORKLOADS = ("fillseq", "fillrandom", "readrandom")
DBBENCH_SIM_THREADS = 8
#: The modeled verifier workers Table 4 prices its functional twin at.
VERIFY_WORKERS = 8
#: The critical-path contraction both the model and the twin must reach.
VERIFY_TARGET_SPEEDUP = 2.5
#: The alloc and reads DES sweeps: threads, and virtual time per point.
SCALING_THREADS = [1, 2, 4, 8]
SCALING_HORIZON_NS = 1_000_000.0
ALLOC_OPS = 1024
#: A 512 KiB append's extent, and a transaction log's allocation after it.
EXTENT_PAGES = 128
SMALL_PAGES = 4
DRBH_OPS = 64
#: Steady-state cross-app open/pread/close iterations on a published file.
STEADY_OPS = 16
TX_BATCHES = [1, 4, 16, 64]
TX_PAYLOAD = b"\xa5" * 256
TX_OVERWRITE = b"\x5a" * 256
STRIPE_DEVICES = [1, 2, 4, 8]
#: One delegated extent, the functional pwrite's size too.
STRIPE_BYTES = 4 << 20
STRIPE_PAGES = 4
#: Delegation workers per device (the cost model's; no thread runs them).
STRIPE_WORKERS = 2
FSCK_WORKERS = [1, 2, 4, 8]
#: ~2000 files across 32 directories on a 128 MiB / 4096-slot volume.
FSCK_VOLUME = dict(files=2000, dirs=32, size=128 * 1024 * 1024, inode_count=4096)


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], List[str]]


def _unmet(*claims: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(violated, message)`` pairs that are violated."""
    return [message for violated, message in claims if violated]


def _pct(plus: float, base: float) -> float:
    return plus / base * 100.0


def _sweeps(workloads, threads, **kw):
    """``{workload: {fs: {"<threads>": Mops/s}}}`` over every system."""
    return {name: {fs: {str(t): v for t, v in series.items()}
                   for fs, series in sweep(SYSTEMS, w, threads, **kw).items()}
            for name, w in workloads.items()}


def _render_sweeps(data, threads, title, unit, convert=lambda mops: mops):
    blocks = []
    for name, rows in data.items():
        values = {fs: {t: convert(v) for t, v in series.items()}
                  for fs, series in rows.items()}
        blocks += [format_table(title(name), "fs", [str(t) for t in threads],
                                values, unit=unit), ""]
    return "\n".join(blocks)


# -- Table 1: the six bugs --------------------------------------------------- #


def _table1_run():
    from repro.bugs import run_all
    from repro.core.config import ARCKFS, ARCKFS_PLUS

    return {config.name: [dataclasses.asdict(o) for o in run_all(config)]
            for config in (ARCKFS, ARCKFS_PLUS)}


def _table1_render(data) -> str:
    lines = ["== Table 1: Bugs in ArckFS and their patches in ArckFS+ ==",
             f"{'Bug':<6}{'Title':<48}{'ArckFS':<14}{'ArckFS+':<14}Patch",
             "-" * 120]
    for b, f in zip(data["arckfs"], data["arckfs+"]):
        lines.append(
            f"§{b['bug']:<5}{b['title']:<48}"
            f"{'MANIFESTED' if b['manifested'] else 'ok':<14}"
            f"{'MANIFESTED' if f['manifested'] else 'fixed':<14}"
            f"{TABLE1_PATCHES[b['bug']]}")
    for config, label in (("arckfs", "ArckFS"), ("arckfs+", "ArckFS+")):
        lines += ["", f"details ({label}):"]
        lines += [f"  §{o['bug']}: {o['detail']}" for o in data[config]]
    return "\n".join(lines)


def _table1_check(data) -> List[str]:
    return ([f"§{o['bug']} {o['title']}: not manifested under arckfs"
             for o in data["arckfs"] if not o["manifested"]]
            + [f"§{o['bug']} {o['title']}: manifested under arckfs+"
               for o in data["arckfs+"] if o["manifested"]])


# -- Figure 3: single-thread metadata throughput (§5.1) --------------------- #


def _fig3_run():
    from repro.workloads.microbench import METADATA_OPS

    return {fs: {op: run_workload(fs, METADATA_OPS[op], 1).mops
                 for op in FIG3_META_OPS + FIG3_DATA_OPS}
            for fs in SYSTEMS}


def _fig3_render(data) -> str:
    lines = [format_table("Figure 3: single-thread metadata throughput",
                          "fs", FIG3_META_OPS + FIG3_DATA_OPS, data,
                          unit="Mops/s"),
             "", "ArckFS+ / ArckFS ratios vs paper:"]
    for op in FIG3_META_OPS + FIG3_DATA_OPS:
        ratio = _pct(data["arckfs+"][op], data["arckfs"][op])
        paper = FIG3_PAPER.get(op)
        if op in FIG3_DATA_OPS:
            paper_s = ": 'comparable'"
        else:
            paper_s = f" {paper:.1f}%" if paper else "   (not reported)"
        lines.append(f"  {op:8s} measured {ratio:6.2f}%   paper{paper_s}")
    return "\n".join(lines)


def _fig3_check(data) -> List[str]:
    """The paper's single-thread drops, and ArckFS on top of every
    metadata op."""
    ratios = {op: _pct(data["arckfs+"][op], data["arckfs"][op])
              for op in FIG3_PAPER}
    best = {op: max(data, key=lambda fs: data[fs][op]) for op in FIG3_META_OPS}
    return _unmet(
        *[(abs(ratios[op] - paper) >= 2.0, f"{op}: arckfs+/arckfs "
           f"{ratios[op]:.2f}% vs paper {paper}% (tolerance 2.0)")
          for op, paper in FIG3_PAPER.items()],
        *[(data[fs][op] > data["arckfs"][op],
           f"{op}: {fs} beats arckfs single-threaded") for op, fs in best.items()])


# -- Figure 4: FxMark metadata scalability (§5.2) ---------------------------- #


def _fig4_run():
    return _sweeps({name: FXMARK[name] for name in METADATA_WORKLOADS},
                   FIG4_THREADS, horizon_ns=FIG4_HORIZON_NS)


def _fig4_render(data) -> str:
    return _render_sweeps(
        data, FIG4_THREADS, unit="Mops/s",
        title=lambda name: f"Figure 4 / {name}: {FXMARK[name].description}")


def _fig4_check(data) -> List[str]:
    """The ArckFS family leads every workload at 48 threads among the
    secure systems, and ArckFS+ scales from 1 to 48 threads."""
    claims = []
    for name, r in data.items():
        best = max(r["arckfs+"]["48"], r["arckfs"]["48"])
        claims += [(r[fs]["48"] >= best, f"{name}: {fs} beats ArckFS @ 48 threads")
                   for fs in FIG4_RIVALS]
        claims.append((r["arckfs+"]["48"] <= r["arckfs+"]["1"],
                       f"{name}: ArckFS+ did not scale from 1 to 48 threads"))
    return _unmet(*claims)


# -- Table 2: ArckFS+ / ArckFS at 48 threads --------------------------------- #


def _table2_run():
    rows = {name: {"arckfs": a, "arckfs+": p, "ratio_pct": _pct(p, a)}
            for name, a, p in table2_sweep()}
    return {"workloads": rows,
            "geomean_pct": geomean(r["ratio_pct"] / 100.0
                                   for r in rows.values()) * 100.0}


def _table2_render(data) -> str:
    lines = ["== Table 2: ArckFS+ relative to ArckFS, FxMark metadata @48 threads ==",
             f"{'workload':<10}{'ArckFS':>10}{'ArckFS+':>10}"
             f"{'measured':>11}{'paper':>9}",
             "-" * 50]
    for name, r in data["workloads"].items():
        lines.append(f"{name:<10}{r['arckfs']:>10.2f}{r['arckfs+']:>10.2f}"
                     f"{r['ratio_pct']:>10.2f}%{TABLE2_PAPER[name]:>8.2f}%")
    lines += ["-" * 50, f"{'geomean':<10}{'':>20}{data['geomean_pct']:>10.2f}%"
              f"{TABLE2_PAPER_GEOMEAN:>8.2f}%"]
    return "\n".join(lines)


def _table2_check(data) -> List[str]:
    g = data["geomean_pct"]
    return _unmet(
        (abs(g - TABLE2_PAPER_GEOMEAN) >= 1.5, f"geomean {g:.2f}% vs paper "
         f"{TABLE2_PAPER_GEOMEAN}% (tolerance 1.5)"),
        *[(abs(r["ratio_pct"] - TABLE2_PAPER[name]) >= 4.0,
           f"{name}: {r['ratio_pct']:.2f}% vs paper {TABLE2_PAPER[name]}% "
           "(tolerance 4.0)") for name, r in data["workloads"].items()])


# -- §5.1/§5.2 data path: fio and FxMark data ops ---------------------------- #


def _fio_run():
    return _sweeps({**FIO_WORKLOADS, **DATA_WORKLOADS}, FIO_THREADS)


def _fio_render(data) -> str:
    return _render_sweeps(
        data, FIO_THREADS, unit="GiB/s",
        title=lambda name: f"fio {name} (4 KiB blocks)",
        convert=lambda mops: mops * 1e6 * 4096 / (1024**3))


def _fio_check(data) -> List[str]:
    """The data path is identical across the two variants (§5.1/§5.2); at
    full scale the delegating systems lead the kernel FSes (§5.2)."""
    claims = []
    for name, r in data.items():
        for t in r["arckfs"]:
            ratio = r["arckfs+"][t] / r["arckfs"][t]
            claims.append((not 0.98 < ratio < 1.02, f"{name}: arckfs+/arckfs @ "
                           f"{t} threads = {ratio:.3f} outside [0.98, 1.02]"))
        claims += [(r["arckfs+"]["48"] < r["pmfs"]["48"],
                    f"{name}: arckfs+ behind pmfs @ 48 threads"),
                   (r["odinfs"]["48"] < r["nova"]["48"],
                    f"{name}: odinfs (delegation) behind nova @ 48 threads")]
    return _unmet(*claims)


# -- §5.3 Filebench ---------------------------------------------------------- #


def _filebench_run():
    from repro.api import Volume, VolumeConfig
    from repro.workloads.filebench import FILEBENCH_SIMS, WEBPROXY, FilebenchEngine

    sim = {name: {str(threads): {fs: run_workload(fs, workload, threads).mops
                                 for fs in FILEBENCH_SYSTEMS}
                  for threads in FILEBENCH_THREADS}
           for name, workload in FILEBENCH_SIMS.items()}
    with Volume.create(64 * 1024 * 1024, VolumeConfig(inode_count=4096)) as vol:
        engine = FilebenchEngine(vol.session("bench", uid=0).fs, WEBPROXY,
                                 nthreads=4, shared=True)
        return {"sim": sim, "flowops": engine.run(loops_per_thread=4)}


def _filebench_render(data) -> str:
    lines = ["== Filebench (new shared-directory framework + artifact variant) ==",
             f"{'workload':<20}{'threads':>8}"
             + "".join(f"{s:>10}" for s in FILEBENCH_SYSTEMS)
             + f"{'+/arck':>9}{'paper':>8}",
             "-" * 95]
    for name, per_threads in data["sim"].items():
        for threads, row in per_threads.items():
            paper = FILEBENCH_PAPER.get((name.split("-")[0], int(threads)))
            paper_s = (f"{paper:.1f}%" if paper and name.endswith("shared")
                       else "   --")
            lines.append(f"{name:<20}{threads:>8}"
                         + "".join(f"{row[s]:>10.3f}" for s in FILEBENCH_SYSTEMS)
                         + f"{_pct(row['arckfs+'], row['arckfs']):>8.1f}%"
                         f"{paper_s:>8}")
    lines += ["", "functional engine (ArckFS+, webproxy-shared, 4 threads): "
              f"{data['flowops']} flowops executed"]
    return "\n".join(lines)


def _filebench_check(data) -> List[str]:
    """'Comparable performance': ArckFS+ within 5 % of ArckFS everywhere,
    and above the kernel FSes."""
    claims = [(data["flowops"] <= 0, "functional engine executed no flowops")]
    for name, per_threads in data["sim"].items():
        for threads, row in per_threads.items():
            where = f"{name} @ {threads} threads"
            ratio = _pct(row["arckfs+"], row["arckfs"])
            claims.append((not 95.0 < ratio < 105.0,
                           f"{where}: arckfs+/arckfs {ratio:.1f}% outside (95, 105)"))
            claims += [(row["arckfs+"] <= row[fs], f"{where}: arckfs+ not above {fs}")
                       for fs in ("ext4", "strata")]
    return _unmet(*claims)


# -- §5.3 LevelDB ------------------------------------------------------------ #


def _leveldb_run():
    from repro.api import Volume, VolumeConfig
    from repro.core.config import ARCKFS, ARCKFS_PLUS
    from repro.workloads.leveldb_bench import DBBENCH_SIMS, run_dbbench

    functional = {}
    for config in (ARCKFS_PLUS, ARCKFS):
        functional[config.name] = {}
        for w in DBBENCH_WORKLOADS:
            vol = Volume.create(64 * 1024 * 1024,
                                VolumeConfig(config=config, inode_count=4096))
            res = run_dbbench(vol.session("db", uid=0).fs, w, n=300)
            functional[config.name][w] = {**dataclasses.asdict(res),
                                          "data_dominance": res.data_dominance}
    sim = {name: {fs: run_workload(fs, w, DBBENCH_SIM_THREADS).mops
                  for fs in SYSTEMS}
           for name, w in DBBENCH_SIMS.items()}
    return {"functional": functional, "sim": sim}


def _leveldb_render(data) -> str:
    lines = ["== LevelDB dbbench: functional op mix (300 KV ops each) ==",
             f"{'config':<10}{'workload':<12}{'reads':>7}{'writes':>8}"
             f"{'KB read':>9}{'KB written':>11}{'ns-ops':>8}{'data%':>7}",
             "-" * 72]
    for config, per_w in data["functional"].items():
        for w, res in per_w.items():
            lines.append(
                f"{config:<10}{w:<12}{res['reads']:>7}{res['writes']:>8}"
                f"{res['bytes_read'] // 1024:>9}{res['bytes_written'] // 1024:>11}"
                f"{res['namespace_ops']:>8}{res['data_dominance'] * 100:>6.1f}%")
    lines += ["", format_table(
        f"dbbench mixes on the DES, {DBBENCH_SIM_THREADS} threads", "mix",
        SYSTEMS, data["sim"], unit="Mops/s")]
    return "\n".join(lines)


def _leveldb_check(data) -> List[str]:
    """A data-dominated mix, near-identical variants, and the ArckFS
    family ahead for the same reasons as §5.1/§5.2."""
    functional = data["functional"]
    claims = [(res["data_dominance"] <= 0.85,
               f"{config} {w}: data ops {res['data_dominance']:.1%} <= 85%")
              for config, per_w in functional.items() for w, res in per_w.items()]
    for w in functional["arckfs"]:
        a, p = functional["arckfs"][w]["writes"], functional["arckfs+"][w]["writes"]
        claims.append((abs(a - p) > a * 0.02 + 2, f"{w}: arckfs {a} writes vs arckfs+ {p}"))
    for name, row in data["sim"].items():
        ratio = row["arckfs+"] / row["arckfs"]
        claims += [(not 0.97 < ratio < 1.03,
                    f"{name}: arckfs+/arckfs {ratio:.3f} outside (0.97, 1.03)"),
                   (row["arckfs+"] <= row["ext4"], f"{name}: arckfs+ not above ext4")]
    return _unmet(*claims)


# -- Table 4: sharing cost (§5.4) -------------------------------------------- #


def _table4_run():
    from repro.workloads.sharing import (
        run_functional_sharing,
        table4,
        verification_scaling,
    )

    # Two real LibFS apps ping-pong a file through the real kernel.
    verified = run_functional_sharing(file_kib=256, trust_group=False)
    sizes = {int(n): k for n, k in verified["verify_batch_sizes"].items()}
    return {
        "cells": [dataclasses.asdict(c) for c in table4()],
        "functional": {
            "verified": verified,
            "trust-group": run_functional_sharing(file_kib=256, trust_group=True),
        },
        "verify_scaling": verification_scaling(),
        # The verified ping-pong's check batches, on the slowest of 1 and of
        # VERIFY_WORKERS modeled workers.
        "critical_units": {
            str(w): COST.verify_critical_units(sizes, w)
            for w in (1, VERIFY_WORKERS)},
    }


def _table4_render(data) -> str:
    lines = ["== Table 4: sharing cost (top rows GiB/s higher=better; "
             "bottom rows us lower=better) ==",
             f"{'scenario':<16}{'system':<22}{'measured':>10}{'paper':>9}",
             "-" * 60]
    lines += [f"{c['scenario']:<16}{c['system']:<22}{c['value']:>8.2f} "
              f"{c['unit']:<6}{TABLE4_PAPER[c['system'], c['scenario']]:>6.2f}"
              for c in data["cells"]]
    lines += ["", "functional twin (real kernel, 256 KiB shared file):"]
    lines += [f"  {mode:<12} verified/transfer={s['bytes_verified_per_transfer']:>10.0f} B"
              f"  snapshot/transfer={s['snapshot_bytes_per_transfer']:>10.0f} B"
              f"  group_skips={s['group_skips']}"
              for mode, s in data["functional"].items()]
    lines += ["", "verification scaling (pipelined, 256KB transfer):",
              f"{'workers':<9}{'ns/transfer':>13}{'speedup':>9}"]
    lines += [f"{row['workers']:<9}{row['ns_per_transfer']:>13.0f}"
              f"{row['speedup']:>8.2f}x" for row in data["verify_scaling"]]
    lines += ["", "pipelined verification, functional twin (same ping-pong):"]
    s, critical = data["functional"]["verified"], data["critical_units"]
    for w, units in critical.items():
        lines.append(
            f"  {'w' + w:<4}verified/transfer={s['bytes_verified_per_transfer']:>10.0f} B"
            f"  verifications={s['verifications']}"
            f"  critical path {units} of {critical['1']} units")
    return "\n".join(lines)


def _table4_check(data) -> List[str]:
    """Concurrent writes to a shared inode incur a sharing cost, which the
    trust group removes; the functional kernel shows the same structure,
    and the model prices the page batch the twin counted."""
    v = {(c["system"], c["scenario"]): c["value"] for c in data["cells"]}
    plus, group = "arckfs+", "arckfs+-trust-group"
    verified, grouped = (data["functional"][mode]["bytes_verified_per_transfer"]
                         for mode in ("verified", "trust-group"))
    critical = data["critical_units"]
    counted = max(map(int, data["functional"]["verified"]["verify_batch_sizes"]))
    modeled = data["verify_scaling"][0]["pages"]
    speedups = [row["speedup"] for row in data["verify_scaling"]]
    return _unmet(
        (v[plus, "4KB-write 1GB"] >= v["nova", "4KB-write 1GB"],
         "4KB-write 1GB: arckfs+ not below nova"),
        (v[group, "4KB-write 1GB"] <= 4 * v[plus, "4KB-write 1GB"],
         "4KB-write 1GB: trust group not 4x above arckfs+"),
        (v[group, "Create 10"] >= v["nova", "Create 10"],
         "Create 10: trust group not below nova"),
        *[(abs(value - TABLE4_PAPER[key]) / TABLE4_PAPER[key] >= 0.15,
           f"{key[1]} {key[0]}: {value:.2f} vs paper {TABLE4_PAPER[key]} "
           "(tolerance 15%)") for key, value in v.items()],
        (verified <= 100_000, f"functional: {verified:.0f} B verified per "
         "transfer without a trust group (want > 100000)"),
        (grouped >= 10_000, f"functional: {grouped:.0f} B verified per "
         "transfer with a trust group (want < 10000)"),
        (speedups[0] != 1.0 or speedups != sorted(speedups),
         f"verification scaling: speedups {speedups} not rising from 1.0"),
        (speedups[-1] < VERIFY_TARGET_SPEEDUP, f"verification scaling: "
         f"{speedups[-1]:.2f}x at the last row (want >= {VERIFY_TARGET_SPEEDUP})"),
        (counted != modeled, f"verification scaling: priced at {modeled} "
         f"pages per transfer, the twin's largest batch is {counted}"),
        (critical["1"] < VERIFY_TARGET_SPEEDUP * critical[str(VERIFY_WORKERS)],
         f"pipelined: critical path {critical[str(VERIFY_WORKERS)]} of "
         f"{critical['1']} units (want <= 1/{VERIFY_TARGET_SPEEDUP})"))


# -- alloc: per-thread page pools vs the global-lock bitmap ------------------ #


def _scaling_sweep(stream):
    """``({"<threads>": Mops/s}, the last run, its thread stats)`` of one
    DES op stream over SCALING_THREADS."""
    mops = {}
    for n in SCALING_THREADS:
        sim = Simulation()
        stats = sim.run_threads(n, stream, SCALING_HORIZON_NS)
        mops[str(n)] = sim.throughput_mops(SCALING_HORIZON_NS)
    return mops, sim, stats


def _global_alloc(sim, tid):
    """The seed allocator: every allocation probes and persists under the
    one lock."""
    lk = sim.lock("alloc")
    while True:
        yield [("delay", COST.op_cpu), ("lock", lk),
               ("delay", COST.alloc_global_time()), ("unlock", lk)]


def _pooled_alloc(sim, tid):
    """An uncontended pool hit per allocation, the shared lock once per
    ``alloc_pool_batch`` refill."""
    lk = sim.lock("alloc")
    batch = COST.alloc_pool_batch
    refill = [("lock", lk), ("delay", COST.alloc_refill_time(batch)), ("unlock", lk)]
    for n in itertools.count():
        yield ([("delay", COST.op_cpu + COST.alloc_pool_hit)]
               + (refill if n % batch == 0 else []))


def _alloc_run():
    from repro.api import Volume, VolumeConfig
    from repro.core.config import ARCKFS
    from repro.core.mkfs import mkfs
    from repro.pm.allocator import PageAllocator
    from repro.pm.device import PMDevice

    device = PMDevice(16 << 20, crash_tracking=False)
    alloc = PageAllocator(device, mkfs(device, inode_count=128))
    fences0 = device.stats.fences
    for _ in range(ALLOC_OPS):
        alloc.alloc(zero=False)
    pooled = {"lock_acquires": alloc.stats.lock_acquires,
              "fences": device.stats.fences - fences0,
              "pool_refills": alloc.stats.pool_refills}
    # An extent comes from the bitmap and leaves the warm pool as it was.
    alloc.alloc(zero=False)
    alloc.alloc_many(EXTENT_PAGES, zero=False)
    fences0, refills0 = device.stats.fences, alloc.stats.pool_refills
    alloc.alloc_many(SMALL_PAGES, zero=False)
    after_extent = {"pool_refills": alloc.stats.pool_refills - refills0,
                    "fences": device.stats.fences - fences0}

    payload = b"\xa5" * (1 << 20)
    vol = Volume.create(8 << 20, VolumeConfig(config=ARCKFS, inode_count=64))
    fs = vol.session("alloc", uid=0).fs
    fd = fs.open("/big.dat", create=True)
    fences0 = vol.device.stats.fences
    fs.pwrite(fd, payload, 0)
    extent = {"fences": vol.device.stats.fences - fences0,
              "write_extents": fs.stats.write_extents,
              "read_back": fs.pread(fd, len(payload), 0) == payload}
    return {"des_mops": {"global": _scaling_sweep(_global_alloc)[0],
                         "pooled": _scaling_sweep(_pooled_alloc)[0]},
            "pooled": pooled, "after_extent": after_extent, "extent": extent}


def _alloc_render(data) -> str:
    des, pooled, extent = data["des_mops"], data["pooled"], data["extent"]
    after = data["after_extent"]
    lines = ["== allocator scaling: global lock vs per-thread pools ==", "",
             f"{'threads':<9}{'global Mops':>13}{'pooled Mops':>13}{'speedup':>9}",
             "-" * 44]
    for n in SCALING_THREADS:
        g, p = des["global"][str(n)], des["pooled"][str(n)]
        lines.append(f"{n:<9}{g:>13.2f}{p:>13.2f}{p / g:>8.1f}x")
    return "\n".join(lines + [
        "", f"functional, {ALLOC_OPS} allocs:",
        f"  global (frozen): {SEED_ALLOC['lock_acquires']} lock acquires, "
        f"{SEED_ALLOC['fences']} fences",
        f"  pooled: {pooled['lock_acquires']} lock acquires, "
        f"{pooled['fences']} fences ({pooled['pool_refills']} refills)",
        f"  after a {EXTENT_PAGES}-page extent, a {SMALL_PAGES}-page alloc: "
        f"{after['pool_refills']} refills, {after['fences']} fences",
        "", "1 MiB sequential pwrite:",
        f"  seed per-page (frozen): {SEED_PWRITE_1MIB['fences']} "
        "persist calls",
        f"  extent-batched:    {extent['fences']} persist calls "
        f"({extent['write_extents']} extent(s)) — "
        f"{SEED_PWRITE_1MIB['fences'] / extent['fences']:.0f}x fewer"])


def _alloc_check(data) -> List[str]:
    """Pools beat the lock >= 3x at 8 threads and scale while the lock
    does not; a refill batches the lock and the fence; an extent leaves the
    pool warm, so the next small allocation costs no refill and no fence;
    an extent write persists >= 4x less than the seed's per-page one."""
    g, p = data["des_mops"]["global"], data["des_mops"]["pooled"]
    pooled, extent, after = data["pooled"], data["extent"], data["after_extent"]
    top = str(SCALING_THREADS[-1])
    return _unmet(
        (p[top] < 3.0 * g[top], f"{top} threads: pooled {p[top]:.2f} Mops "
         f"< 3x global {g[top]:.2f}"),
        (g[top] >= 1.5 * g["2"], f"global allocator not lock-bound: {g[top]:.2f} "
         f"Mops at {top} threads vs {g['2']:.2f} at 2"),
        (p[top] <= 3.0 * p["1"], f"pooled allocator did not scale: {p[top]:.2f} "
         f"Mops at {top} threads vs {p['1']:.2f} at 1"),
        (pooled["lock_acquires"] > ALLOC_OPS // 8, f"pooled: "
         f"{pooled['lock_acquires']} lock acquires per {ALLOC_OPS} allocs"),
        (pooled["fences"] > SEED_ALLOC["fences"] // 8,
         f"pooled: {pooled['fences']} fences per {ALLOC_OPS} allocs"),
        (after["pool_refills"] or after["fences"],
         f"after a {EXTENT_PAGES}-page extent, a {SMALL_PAGES}-page alloc: "
         f"{after['pool_refills']} refills, {after['fences']} fences (want 0, 0)"),
        (SEED_PWRITE_1MIB["fences"] < 4 * extent["fences"],
         f"1 MiB pwrite: {extent['fences']} persist calls, not 4x below "
         f"the seed's {SEED_PWRITE_1MIB['fences']}"),
        (extent["write_extents"] < 1, "1 MiB pwrite wrote no extent"),
        (not extent["read_back"], "1 MiB pwrite did not read back"))


# -- reads: the rwlock read side vs how the patched system reads ------------- #


def _rwlock_read(sim, tid):
    """The read-lock acquire and release RMWs both hit the one shared lock
    line, so they serialize across every reader."""
    lk = sim.lock("file.rwlock")
    rmw = [("lock", lk), ("delay", COST.cacheline_rmw), ("unlock", lk)]
    while True:
        yield [("delay", COST.lookup_cpu), *rmw, ("delay", COST.pm_read_lat), *rmw]


def _seqlock_read(sim, tid):
    """Sequence check, copy and a per-thread counter bump: nothing shared
    is written, so readers run fully in parallel."""
    cost = (COST.lookup_cpu + COST.seq_read_check
            + COST.pm_read_lat + COST.sharded_counter_add)
    while True:
        yield [("delay", cost)]


def _reads_des(stream):
    mops, sim, stats = _scaling_sweep(stream)
    return {"mops": mops,
            "mean_op_ns": sum(t.op_time for t in stats) / sum(t.ops for t in stats),
            "contended": sim.lock("file.rwlock").contended}


def _reads_run():
    from repro import obs
    from repro.api import Volume, VolumeConfig
    from repro.core.config import ARCKFS, ARCKFS_PLUS

    # FxMark DRBH: every op reads the same 4K block of one shared file.
    drbh = {}
    for config in (ARCKFS, ARCKFS_PLUS):
        vol = Volume.create(16 << 20, VolumeConfig(config=config, inode_count=256))
        fs = vol.session("reads", uid=0).fs
        DATA_WORKLOADS["DRBH"].prepare(fs, 1)
        mi = fs._inodes[fs.stat("/shared/blk").ino]
        locks0, read0 = mi.rwlock.read_acquisitions, fs.stats.bytes_read
        for i in range(DRBH_OPS):
            DATA_WORKLOADS["DRBH"].functional(fs, 0, i)
        drbh[config.name] = {
            "read_lock_acquisitions": mi.rwlock.read_acquisitions - locks0,
            "bytes_read": fs.stats.bytes_read - read0}

    # A writer publishes /hot (verified release); a second app re-attaches
    # it from the kernel's shared read-only table on every open.
    vol = Volume.create(16 << 20, VolumeConfig(config=ARCKFS_PLUS, inode_count=128))
    writer, reader = (vol.session(app, uid=0).fs for app in ("writer", "reader"))
    payload = b"published" * 400
    writer.write_file("/hot", payload)
    writer.release_all()
    # Warm the reader's directory state, then hand the file back so the
    # measured loop performs the re-attach itself.
    reader.release_ino(reader.stat("/hot").ino)
    was_enabled = obs.is_enabled()
    if not was_enabled:
        obs.enable()  # only obs counts kernel crossings
    try:
        before = obs.metrics.snapshot()["counters"]
        hits0 = vol.kernel.readcache.stats.hits
        read_back = True
        for _ in range(STEADY_OPS):
            fd = reader.open("/hot")
            read_back &= reader.pread(fd, len(payload), 0) == payload
            reader.close(fd)
        after = obs.metrics.snapshot()["counters"]
    finally:
        if not was_enabled:
            obs.disable()

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    return {"des": {"rwlock": _reads_des(_rwlock_read),
                    "seqlock": _reads_des(_seqlock_read)},
            "drbh": drbh,
            "readcache": {"kernel_crossings": delta("kernel.crossings"),
                          "crossings_avoided": delta("readpath.crossings_avoided"),
                          "cache_hits": vol.kernel.readcache.stats.hits - hits0,
                          "validations": vol.kernel.readcache.stats.validations,
                          "read_back": read_back}}


def _reads_render(data) -> str:
    des, drbh, rc = data["des"], data["drbh"], data["readcache"]
    lines = ["== read-path scaling: rwlock read side vs the patched read path ==",
             "", f"{'threads':<9}{'rwlock Mops':>13}{'seqlock Mops':>14}{'speedup':>9}",
             "-" * 45]
    for n in SCALING_THREADS:
        r, s = des["rwlock"]["mops"][str(n)], des["seqlock"]["mops"][str(n)]
        lines.append(f"{n:<9}{r:>13.2f}{s:>14.2f}{s / r:>8.1f}x")
    return "\n".join(lines + [
        "", f"at {SCALING_THREADS[-1]} threads:",
        f"  rwlock:  mean op {des['rwlock']['mean_op_ns']:.0f} ns "
        f"({des['rwlock']['contended']} contended lock acquisitions)",
        f"  seqlock: mean op {des['seqlock']['mean_op_ns']:.0f} ns "
        f"({des['seqlock']['contended']} contended)",
        "", f"functional DRBH, {DRBH_OPS} hot-block reads:",
        *[f"  {name + ':':<9}{r['read_lock_acquisitions']} read-lock "
          f"acquisitions, {r['bytes_read']} bytes" for name, r in drbh.items()],
        "", f"mapping cache, {STEADY_OPS} cross-app open/pread/close:",
        f"  kernel crossings:  {rc['kernel_crossings']}",
        f"  crossings avoided: {rc['crossings_avoided']} ({rc['cache_hits']} "
        f"cache hit(s), {rc['validations']} validations)"])


def _reads_check(data) -> List[str]:
    """The optimistic read beats the rwlock read side >= 3x at 8 threads
    and scales while the rwlock waits; DRBH takes no read lock under
    arckfs+; steady cross-app reads never enter the kernel."""
    rw, seq = data["des"]["rwlock"], data["des"]["seqlock"]
    r, s = rw["mops"], seq["mops"]
    top = str(SCALING_THREADS[-1])
    plain, plus = data["drbh"]["arckfs"], data["drbh"]["arckfs+"]
    rc = data["readcache"]
    return _unmet(
        (s[top] < 3.0 * r[top], f"{top} threads: seqlock {s[top]:.2f} Mops "
         f"< 3x rwlock {r[top]:.2f}"),
        (r[top] >= 1.5 * r["2"], f"rwlock not lock-bound: {r[top]:.2f} Mops "
         f"at {top} threads vs {r['2']:.2f} at 2"),
        (s[top] <= 3.0 * s["1"], f"seqlock did not scale: {s[top]:.2f} Mops "
         f"at {top} threads vs {s['1']:.2f} at 1"),
        (rw["mean_op_ns"] <= 2 * seq["mean_op_ns"], f"rwlock mean op "
         f"{rw['mean_op_ns']:.0f} ns not 2x the seqlock's {seq['mean_op_ns']:.0f}"),
        (seq["contended"] != 0, f"seqlock: {seq['contended']} contended acquisitions"),
        (rw["contended"] == 0, "rwlock: no contended acquisition"),
        (plain["read_lock_acquisitions"] < DRBH_OPS, f"DRBH arckfs: "
         f"{plain['read_lock_acquisitions']} read locks for {DRBH_OPS} reads"),
        (plus["read_lock_acquisitions"] != 0, f"DRBH arckfs+: "
         f"{plus['read_lock_acquisitions']} read locks (want 0)"),
        (plus["bytes_read"] != plain["bytes_read"], f"DRBH bytes read: arckfs+ "
         f"{plus['bytes_read']} vs arckfs {plain['bytes_read']}"),
        (rc["kernel_crossings"] != 0,
         f"mapping cache: {rc['kernel_crossings']} kernel crossings (want 0)"),
        (rc["crossings_avoided"] < 1, "mapping cache: no crossing avoided"),
        (rc["cache_hits"] < 1, "mapping cache: no hit"),
        (not rc["read_back"], "mapping cache: a read returned other bytes"))


# -- tx: the batched redo log vs per-op persistence -------------------------- #


def _tx_run():
    from repro.api import Volume, VolumeConfig
    from repro.concurrency.failpoints import failpoints

    def session():
        vol = Volume.create(32 << 20, VolumeConfig(inode_count=256))
        return vol, vol.session("tx")

    out = {}
    for n in TX_BATCHES:
        vol, s = session()
        f0 = vol.device.stats.fences
        for i in range(n):
            s.write_file(f"/f{i}", TX_PAYLOAD)
        per_op = vol.device.stats.fences - f0
        s.shutdown()

        vol, s = session()
        tx = s.transaction()
        for i in range(n):
            tx.write_file(f"/f{i}", TX_PAYLOAD)
        # Durability is the seal: the fences after it (apply, checkpoint)
        # are work the caller does not wait on to be durable.
        at_seal = {}
        f0 = vol.device.stats.fences
        failpoints.install("tx.post_seal", lambda _ctx: at_seal.update(
            fences=vol.device.stats.fences))
        try:
            stats = tx.commit()
        finally:
            failpoints.remove("tx.post_seal")
        seal_fences = at_seal["fences"] - f0
        s.shutdown()

        # Overwrites of mapped bytes: the apply fences once for the batch,
        # so the whole commit, checkpoint included, costs the same at any n.
        vol, s = session()
        for i in range(n):
            s.write_file(f"/f{i}", TX_PAYLOAD)
        tx = s.transaction()
        for i in range(n):
            tx.pwrite(f"/f{i}", TX_OVERWRITE, 0)
        f0 = vol.device.stats.fences
        tx.commit()
        overwrite = vol.device.stats.fences - f0
        s.shutdown()
        out[str(n)] = {"per_op_fences": per_op,
                       "tx_seal_fences": seal_fences,
                       "overwrite_commit_fences": overwrite,
                       "log_pages": stats["log_pages"],
                       "log_bytes": stats["log_bytes"]}
    return out


def _tx_speedup(n: int, counts) -> float:
    """Modeled latency to durability, per-op over batched, for a batch of
    ``n`` ops costing the measured ``counts`` fences: the fences come from
    the functional stack, so a fence added to the seal path shows here."""
    work = n * (COST.op_cpu + COST.pm_write_lat)
    return ((work + counts["per_op_fences"] * COST.fence)
            / (work + counts["tx_seal_fences"] * COST.fence))


def _tx_render(data) -> str:
    lines = ["== transaction commit: batched redo log vs per-op persistence ==",
             "", f"{'batch':<7}{'per-op fences':>15}{'tx seal fences':>16}"
             f"{'modeled speedup':>17}{'overwrite commit fences':>25}", "-" * 80]
    for n in TX_BATCHES:
        f = data[str(n)]
        lines.append(f"{n:<7}{f['per_op_fences']:>15}{f['tx_seal_fences']:>16}"
                     f"{_tx_speedup(n, f):>16.2f}x"
                     f"{f['overwrite_commit_fences']:>25}")
    top = data[str(TX_BATCHES[-1])]
    return "\n".join(lines + [
        "", f"at batch {TX_BATCHES[-1]}: durability costs {top['tx_seal_fences']} "
        f"fence(s) for the whole transaction ({top['log_pages']} log page(s), "
        f"{top['log_bytes']} bytes) vs {top['per_op_fences']} per-op — the seal "
        "is one 8-byte atomic publish.",
        f"overwrite commit: {TX_BATCHES[-1]} pwrites into existing files cost "
        f"{top['overwrite_commit_fences']} fence(s) from log to checkpoint — "
        "the log rides the seal's fence, the apply's one fence covers every "
        "overwrite, and the checkpoint fences its seal clear."])


def _tx_check(data) -> List[str]:
    """Fences to durability stay constant (<= 2: a refill for the log's
    pages, and the seal's fence, which the log rides) in the batch while
    per-op persistence pays per op; the batched commit models >= 2x from
    batch 4, rising with the batch to >= 2.5x; a whole commit of overwrites
    costs 3 fences at the first batch (seal, apply, checkpoint) and no
    more at any other."""
    seal = {n: data[str(n)]["tx_seal_fences"] for n in TX_BATCHES}
    per_op = {n: data[str(n)]["per_op_fences"] for n in TX_BATCHES}
    overwrite = {n: data[str(n)]["overwrite_commit_fences"] for n in TX_BATCHES}
    speedups = [_tx_speedup(n, data[str(n)]) for n in TX_BATCHES]
    at4 = speedups[TX_BATCHES.index(4)]
    first, last = TX_BATCHES[0], TX_BATCHES[-1]
    return _unmet(
        (len(set(seal.values())) != 1, f"seal fences vary with the batch: {seal}"),
        (max(seal.values()) > 2, f"seal fences {max(seal.values())} (want <= 2)"),
        (overwrite[first] > 3, f"overwrite commit fences {overwrite[first]} at "
         f"batch {first} (want <= 3)"),
        (max(overwrite.values()) > overwrite[first],
         f"overwrite commit fences grow with the batch: {overwrite}"),
        (per_op[last] < 8 * per_op[first], f"per-op fences {per_op[last]} at "
         f"batch {last}, not 8x the {per_op[first]} at batch {first}"),
        (at4 < 2.0, f"batch 4: modeled speedup {at4:.2f}x (want >= 2)"),
        (speedups != sorted(speedups), "modeled speedup falls with the batch: "
         + ", ".join(f"{x:.2f}x" for x in speedups)),
        (speedups[-1] < 2.5,
         f"batch {last}: modeled speedup {speedups[-1]:.2f}x (want >= 2.5)"))


# -- striping: bandwidth vs member devices ----------------------------------- #


def _striping_run():
    from repro import obs
    from repro.api import Volume, VolumeConfig

    modeled = {op: {str(n): STRIPE_BYTES / COST.delegate_io_time(  # B/ns = GB/s
        STRIPE_BYTES, devices=n, workers_per_device=STRIPE_WORKERS, read=read)
                    for n in STRIPE_DEVICES}
               for op, read in (("write", False), ("read", True))}
    vol = Volume.create(32 << 20, VolumeConfig(
        devices=4, stripe_pages=STRIPE_PAGES, inode_count=128))
    payload = bytes(range(256)) * (STRIPE_BYTES // 256)
    with vol.session("striping") as sess:
        fd = sess.open("/big.dat", create=True)
        before = [dataclasses.replace(m.stats) for m in vol.device.members]
        sess.pwrite(fd, payload, 0)
        deltas = [obs.stats_diff(m.stats, b)
                  for m, b in zip(vol.device.members, before)]
        read_back = sess.pread(fd, STRIPE_BYTES, 0) == payload
    vol.close()
    return {"modeled_gbps": modeled,
            "fanout": {"devices": vol.device.devices,
                       "bytes_stored": [d.bytes_stored for d in deltas],
                       "ntstores": [d.ntstores for d in deltas],
                       "fences": [d.fences for d in deltas],
                       "read_back": read_back}}


def _striping_render(data) -> str:
    bw, fo = data["modeled_gbps"], data["fanout"]
    lines = ["== data striping: bandwidth vs member devices "
             f"({STRIPE_BYTES >> 20} MiB extents, {STRIPE_WORKERS} workers/device) ==",
             "", f"{'devices':<9}{'write GB/s':>12}{'read GB/s':>12}{'w-speedup':>11}",
             "-" * 44]
    for n in STRIPE_DEVICES:
        w, r = bw["write"][str(n)], bw["read"][str(n)]
        lines.append(f"{n:<9}{w:>12.2f}{r:>12.2f}{w / bw['write']['1']:>10.1f}x")
    total = sum(fo["bytes_stored"])
    return "\n".join(lines + [
        "", f"functional {STRIPE_BYTES >> 20} MiB pwrite on {fo['devices']} devices:",
        "  byte shares per device: "
        + ", ".join(f"{b / total:.0%}" for b in fo["bytes_stored"]),
        f"  ntstores per device:    {fo['ntstores']}",
        f"  persist calls per device: {fo['fences']}"])


def _striping_check(data) -> List[str]:
    """>= 3x modeled sequential-write bandwidth at 4 devices, rising with
    every device added; every member stores a near-equal share and takes
    its own persist calls."""
    w, fo = data["modeled_gbps"]["write"], data["fanout"]
    rising = [w[str(n)] for n in STRIPE_DEVICES]
    stored = fo["bytes_stored"]
    return _unmet(
        (w["4"] < 3.0 * w["1"],
         f"4 devices: {w['4']:.2f} GB/s modeled write, not 3x {w['1']:.2f}"),
        (any(a >= b for a, b in zip(rising, rising[1:])),
         f"modeled write bandwidth not rising with devices: {rising}"),
        (min(stored) <= 0, f"a member stored nothing: {stored}"),
        (min(fo["fences"]) <= 0,
         f"a member took no persist call: {fo['fences']}"),
        (max(stored) >= 2 * min(stored), f"byte shares more than 2x apart: {stored}"),
        (not fo["read_back"], "striped pwrite did not read back"))


# -- ablation: what each ArckFS+ patch costs --------------------------------- #


def _ablation_run():
    from repro.api import Volume, VolumeConfig
    from repro.core.config import ARCKFS, ARCKFS_PLUS
    from repro.workloads.microbench import METADATA_OPS

    mechanisms = {}

    def each(metric, configs, measure):
        """``measure(volume, fs)`` on a fresh volume under each config."""
        mechanisms[metric] = {}
        for config in configs:
            vol = Volume.create(64 << 20, VolumeConfig(config=config, inode_count=2048))
            mechanisms[metric][config.name] = measure(vol, vol.session("abl", uid=0).fs)

    def fences_per_create(vol, fs):
        fs.mkdir("/d")
        f0 = vol.device.stats.fences
        for i in range(16):
            fs.close(fs.creat(f"/d/f{i}"))
        return (vol.device.stats.fences - f0) / 16

    def rcu_sections_per_open(vol, fs):
        # 5 deep, but the parent's walk is remembered: a first open enters
        # one read-side section, for the leaf, and a repeat enters none.
        fs.makedirs("/a/b/c/d")
        for i in range(16):
            fs.write_file(f"/a/b/c/d/x{i}", b"p")
        r0 = fs.rcu.read_sections
        for i in range(16):
            fs.close(fs.open(f"/a/b/c/d/x{i}"))
        return (fs.rcu.read_sections - r0) / 16

    def bucket_locks_per_release(vol, fs):
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.commit_path("/")
        mi = fs._resolve(("d",), need_dir=True)
        a0 = sum(b.lock.acquisitions for b in mi.dir.buckets.values())
        fs.release_path("/d")
        return sum(b.lock.acquisitions for b in mi.dir.buckets.values()) - a0

    def per_dir_rename(counter):
        def measure(vol, fs):
            fs.mkdir("/src")
            fs.mkdir("/src/d")
            fs.mkdir("/dst")
            before = counter(vol.kernel)
            fs.rename("/src/d", "/dst/d")
            return counter(vol.kernel) - before
        return measure

    each("fences/create",  # §4.2
         (ARCKFS, ARCKFS.with_patch(fence_before_marker=True, name="+fence")),
         fences_per_create)
    each("rcu-sections/open",  # §4.5
         (ARCKFS, ARCKFS.with_patch(rcu_buckets=True, name="+rcu")),
         rcu_sections_per_open)
    each("bucket-locks/release",  # §4.3
         (ARCKFS, ARCKFS.with_patch(locked_release=True, name="+lockrel")),
         bucket_locks_per_release)
    each("lease-grants/dir-rename", (ARCKFS, ARCKFS_PLUS),  # §4.6
         per_dir_rename(lambda k: k.rename_lease.grants))
    each("verifications/dir-rename", (ARCKFS, ARCKFS_PLUS),  # §4.1
         per_dir_rename(lambda k: k.stats.verifications))

    # Zero one calibrated mechanism at a time and re-run the single-thread
    # Figure 3 ops: the ArckFS+/ArckFS ratio that is left is the rest's.
    variants = {"full ArckFS+": COST,
                "without §4.5 RCU cost": dataclasses.replace(COST, rcu_read=0.0),
                "without §4.2 fence cost": dataclasses.replace(COST, fence=0.0)}
    attribution = {}
    for op in ("create", "open", "delete"):
        w = METADATA_OPS[op]
        attribution[op] = {
            label: _pct(run_workload("arckfs+", w, 1, cost=cost).mops,
                        run_workload("arckfs", w, 1, cost=cost).mops)
            for label, cost in variants.items()}
        attribution[op]["ArckFS baseline Mops"] = run_workload("arckfs", w, 1).mops
    return {"mechanisms": mechanisms, "attribution": attribution}


def _ablation_render(data) -> str:
    lines = ["== Ablation 1: functional mechanism counts per patch =="]
    lines += [f"  {f'{config:<12} {metric}':<44} {value:8.2f}"
              for metric, per in data["mechanisms"].items()
              for config, value in per.items()]
    lines += ["", "== Ablation 2: DES single-thread ratio with one mechanism zeroed =="]
    for op, cells in data["attribution"].items():
        lines.append(f"  {op}:")
        lines += [f"    {label:<28} {value:8.2f}{' Mops' if 'Mops' in label else '%'}"
                  for label, value in cells.items()]
    return "\n".join(lines)


def _ablation_check(data) -> List[str]:
    """Each patch adds exactly its mechanism: §4.2 one fence per create,
    §4.5 a read-side section per open, §4.3 bucket locks on release,
    §4.6/§4.1 a rename lease and an extra verification; zeroing the RCU
    (fence) cost recovers most of the open (create) drop."""
    m, att = data["mechanisms"], data["attribution"]
    fences, rcu = m["fences/create"], m["rcu-sections/open"]
    locks, grants = m["bucket-locks/release"], m["lease-grants/dir-rename"]
    verifs = m["verifications/dir-rename"]
    return _unmet(
        (fences["+fence"] != fences["arckfs"] + 1,
         f"§4.2: {fences['+fence']} fences/create patched vs {fences['arckfs']}"),
        (rcu["arckfs"] != 0, f"§4.5: {rcu['arckfs']} rcu sections/open unpatched"),
        (rcu["+rcu"] < 1, f"§4.5: {rcu['+rcu']} rcu sections/open patched"),
        (locks["arckfs"] != 0, f"§4.3: {locks['arckfs']} bucket locks/release unpatched"),
        (locks["+lockrel"] < 1, f"§4.3: {locks['+lockrel']} bucket locks/release patched"),
        (grants["arckfs"] != 0, f"§4.6: {grants['arckfs']} lease grants unpatched"),
        (grants["arckfs+"] < 1, f"§4.6: {grants['arckfs+']} lease grants patched"),
        (verifs["arckfs+"] <= verifs["arckfs"], f"§4.1: {verifs['arckfs+']} "
         f"verifications/dir-rename patched vs {verifs['arckfs']}"),
        (att["open"]["without §4.5 RCU cost"] <= 95.0, "open without the RCU cost: "
         f"{att['open']['without §4.5 RCU cost']:.2f}% (want > 95)"),
        (att["create"]["without §4.2 fence cost"] <= 95.0, "create without the fence "
         f"cost: {att['create']['without §4.2 fence cost']:.2f}% (want > 95)"))


# -- fsck: the pipelined checker's worker scaling ---------------------------- #


def _fsck_run():
    from repro.fsck import build_volume, run_fsck

    device, _kernel, _fs = build_volume(**FSCK_VOLUME)
    report = run_fsck(device)
    doc = report.to_dict()
    # One check, priced at every worker count.
    priced = {}
    for w in FSCK_WORKERS:
        phases = COST.fsck_phase_time(report.inodes_total, report.work,
                                      report.pages_claimed, w)
        priced[str(w)] = {"modeled_ns": sum(phases.values()), "phase_ns": phases}
    return {"findings": doc["findings"], **doc["stats"], "workers": priced}


def _fsck_render(data) -> str:
    priced = data["workers"]
    first = priced[str(FSCK_WORKERS[0])]["modeled_ns"]
    lines = ["== fsck worker scaling ==",
             f"volume: {data['inodes_valid']} inodes ({data['dirs']} dirs, "
             f"{data['files']} files), {data['dentries']} dentries, "
             f"{data['pages_claimed']} pages, "
             f"{data['bytes_scanned'] / (1 << 20):.1f} MiB scanned",
             "", f"{'workers':<9}{'scan ms':>10}{'check ms':>10}{'graph ms':>10}"
             f"{'total ms':>10}{'MiB/s':>10}{'speedup':>9}", "-" * 68]
    for w in FSCK_WORKERS:
        r = priced[str(w)]
        mibps = data["bytes_scanned"] / (1 << 20) / (r["modeled_ns"] / 1e9)
        lines.append(f"{w:<9}" + "".join(f"{r['phase_ns'][p] / 1e6:>10.3f}"
                                         for p in ("scan", "check", "graph"))
                     + f"{r['modeled_ns'] / 1e6:>10.3f}{mibps:>10.0f}"
                     f"{first / r['modeled_ns']:>8.2f}x")
    return "\n".join(lines + ["", "(modeled virtual time; the serial graph "
                              "merge bounds the asymptote)"])


def _fsck_check(data) -> List[str]:
    """A clean volume whose modeled check time falls with every worker
    added, >= 2x end to end at 8 and >= 4x on the parallel scan."""
    priced = [data["workers"][str(w)] for w in FSCK_WORKERS]
    totals = [r["modeled_ns"] for r in priced]
    scans = [r["phase_ns"]["scan"] for r in priced]
    return _unmet(
        (data["findings"] != [], f"{len(data['findings'])} finding(s) on "
         "the clean volume"),
        (any(a <= b for a, b in zip(totals, totals[1:])),
         f"modeled time not falling with workers: {totals}"),
        (totals[0] < 2.0 * totals[-1], f"{FSCK_WORKERS[-1]} workers: "
         f"{totals[0] / totals[-1]:.2f}x end to end (want >= 2)"),
        (scans[0] < 4.0 * scans[-1], f"{FSCK_WORKERS[-1]} workers: "
         f"{scans[0] / scans[-1]:.2f}x on the scan (want >= 4)"))


# -- fences: which fences a crash needs -------------------------------------- #

#: Names long enough that a dentry spans two cache lines, as in Table 1's
#: §4.2 demonstration: a torn record is then reachable.
_AUDIT_NAME = "an-entry-name-long-enough-to-span-two-lines"


_D_OLD, _D_NEW, _E_NEW = (f"{p}-{_AUDIT_NAME}" for p in ("/d/a", "/d/b", "/e/a"))
_DATA = "/d/data"
#: The files a transaction overwrites: page 1 of each, 3 x 4 KiB.
_TX_FILES = ("/d/a", "/d/b", "/d/c")


def _write_page(session, byte: bytes, page: int) -> None:
    """One page of ``byte`` written at page ``page`` of ``_DATA``."""
    fd = session.open(_DATA)
    session.pwrite(fd, byte * PAGE_SIZE, page * PAGE_SIZE)
    session.close(fd)


def _tx_files(session) -> None:
    for path in _TX_FILES:
        session.write_file(path, b"a" * 2 * PAGE_SIZE)


def _tx3(session) -> None:
    """Commit one transaction overwriting page 1 of every ``_TX_FILES``."""
    with session.transaction() as tx:
        for path in _TX_FILES:
            tx.pwrite(path, b"b" * PAGE_SIZE, PAGE_SIZE)


#: The audited ops: ``name -> (setup, *steps)``.  ``setup`` runs on the base
#: volume (directories ``/d`` and ``/e``, each with a log page), the steps
#: are what the audit fences: the FxMark metadata ops; the data path's
#: one-page overwrite, one-page append and one-page truncate; a 3 x 4 KiB
#: overwrite commit; and that commit followed by an unlink of a file it
#: wrote, whose crash images a single-op program cannot reach.
FENCE_AUDIT_OPS = {
    "creat": (lambda s: None, lambda s: s.close(s.creat(_D_NEW))),
    "unlink": (lambda s: s.close(s.creat(_D_OLD)), lambda s: s.unlink(_D_OLD)),
    "mkdir": (lambda s: None, lambda s: s.mkdir(_D_NEW)),
    "rmdir": (lambda s: s.mkdir(_D_OLD), lambda s: s.rmdir(_D_OLD)),
    "rename": (lambda s: s.close(s.creat(_D_OLD)),
               lambda s: s.rename(_D_OLD, _D_NEW)),
    "rename-file-x": (lambda s: s.close(s.creat(_D_OLD)),
                      lambda s: s.rename(_D_OLD, _E_NEW)),
    "rename-dir-x": (lambda s: s.makedirs(_D_OLD + "/sub"),
                     lambda s: s.rename(_D_OLD, _E_NEW)),
    "pwrite": (lambda s: s.write_file(_DATA, b"a" * 2 * PAGE_SIZE),
               lambda s: _write_page(s, b"b", 1)),
    "append": (lambda s: s.write_file(_DATA, b"a" * PAGE_SIZE),
               lambda s: _write_page(s, b"b", 1)),
    "truncate": (lambda s: s.write_file(_DATA, b"a" * 2 * PAGE_SIZE),
                 lambda s: s.truncate(_DATA, PAGE_SIZE)),
    "tx3": (_tx_files, _tx3),
    "tx3+unlink": (_tx_files, _tx3, lambda s: s.unlink(_TX_FILES[0])),
}
#: Fences per op, every one of them needed.
FENCES_PER_OP = {"creat": 2, "unlink": 1, "mkdir": 2, "rmdir": 1,
                 "rename": 2, "rename-file-x": 2, "rename-dir-x": 2,
                 "pwrite": 1, "append": 2, "truncate": 2,
                 "tx3": 3, "tx3+unlink": 4}
#: Fences an op's own images do not show needed, and the row whose images
#: do, at the same site: ``(op, site) -> row``.  tx3's checkpoint leaves
#: its log pages allocated (recycled, never freed) and a seal left set
#: replays idempotently, so within tx3 no image needs that fence; the seal
#: must still not outlive the next op, which tx3+unlink shows.
FENCE_NEEDED_BY = {("tx3", "retire"): "tx3+unlink"}
#: The ops whose images are also judged raw, before mount rebuilds the
#: bitmap: no page in use with its bit clear, none claimed twice.  Not an
#: unlink of a file with pages: its record free and bit clears share one
#: fence window, so a raw image may show an orphan record over clear bits,
#: which mount wipes and reclaims.
_RAW_FSCK_OPS = frozenset({"pwrite", "append", "truncate", "tx3"})
_RAW_FSCK_CLASSES = frozenset({F_PAGE_UNALLOCATED, F_PAGE_DOUBLE_USE})
#: The ops judged all-or-nothing: every file of one state, not a byte mix.
_ATOMIC_OPS = frozenset({"tx3", "tx3+unlink"})

#: A namespace: ``(path, is a directory, a regular file's bytes or None)``
#: for every path below the root, sorted.
Namespace = List[Tuple[str, bool, Optional[bytes]]]


def _namespace(session) -> Namespace:
    """Every path below the root, with whether it is a directory and, for a
    regular file, its bytes."""
    out, stack = [], ["/"]
    while stack:
        parent = stack.pop()
        for name in session.readdir(parent):
            path = parent.rstrip("/") + "/" + name
            is_dir = session.stat(path).is_dir
            out.append((path, is_dir, None if is_dir else session.read_file(path)))
            if is_dir:
                stack.append(path)
    return sorted(out)


def _file_violation(path: str, data: bytes, versions: List[bytes]) -> Optional[str]:
    """Why ``data`` is none of ``versions`` of a file, or None.  A data
    write is not atomic, so a byte may come from any version; the size must
    be one of theirs, and no byte may be in none of them."""
    if data in versions:
        return None
    if len(data) not in {len(v) for v in versions}:
        return f"file {path} size {len(data)}"
    for i, byte in enumerate(data):
        if all(i >= len(v) or v[i] != byte for v in versions):
            return f"file {path} byte {i}"
    return None


def _judge_image(device, allowed: List[Namespace], *, raw: bool,
                 atomic: bool) -> Optional[str]:
    """Why a crash image violates — with ``raw``, fsck on the raw image
    finding a ``_RAW_FSCK_CLASSES`` class; fsck on the mounted volume not
    clean; names not those of one namespace in ``allowed``; a regular
    file's size or bytes not those of its ``allowed`` versions; or, with
    ``atomic``, the files not all of one namespace — or None."""
    from repro.api import Volume
    from repro.errors import ReproError
    from repro.fsck import run_fsck

    if raw:
        found = sorted({f.cls for f in run_fsck(device).findings} & _RAW_FSCK_CLASSES)
        if found:
            return "raw fsck " + ",".join(found)
    try:
        vol = Volume.mount(device)
        report = vol.fsck()
        if not report.clean:
            return "fsck " + ",".join(sorted({f.cls for f in report.findings}))
        found = _namespace(vol.session("judge", uid=0))
    except ReproError as exc:
        return f"mount {type(exc).__name__}"
    names = {(p, d) for p, d, _data in found}
    post = allowed[-1]
    if all(names != {(p, d) for p, d, _data in ns} for ns in allowed):
        post_names = {(p, d) for p, d, _data in post}
        return "namespace " + " ".join(
            [f"-{p}" for p, _d in sorted(post_names - names)]
            + [f"+{p}" for p, _d in sorted(names - post_names)]
        ).replace(f"-{_AUDIT_NAME}", "*")
    for path, _d, data in found:
        if data is not None:
            reason = _file_violation(path, data, [
                v for ns in allowed for p, _d, v in ns if p == path])
            if reason is not None:
                return reason
    if atomic and found not in allowed:
        return "torn tx: " + " ".join(p for p, d, v in found if (p, d, v) not in post)
    return None


def _audit_run(image: bytes, name: str, skip: int, states: List[Namespace]):
    """Run op ``name``'s steps on a mount of ``image`` with fence ``skip``
    (1-based; 0 for none) not taken, judging the crash images just before
    every later fence (any namespace of ``states``, which runs from before
    the first step to after the last) and at the return (the last only).
    Returns ``(sites, lines, first violation)``."""
    from repro.api import Volume, VolumeConfig

    _setup, *steps = FENCE_AUDIT_OPS[name]
    vol = Volume.mount(image, VolumeConfig(crash_tracking=True))
    session = vol.session("audit", uid=0)
    _namespace(session)  # warm: every directory's auxiliary state built
    alloc = vol.kernel.alloc
    alloc.free(alloc.alloc(zero=False))  # warm: this thread's page pool full
    vol.device.drain()
    raw, atomic = name in _RAW_FSCK_OPS, name in _ATOMIC_OPS
    # 34 images a point: every one, or 32 seeded, the floor and the newest.
    *fences, end = explore(
        vol.device, lambda: [step(session) for step in steps],
        lambda device, point: _judge_image(
            device, states if point.fence else states[-1:], raw=raw, atomic=atomic),
        budget=34, seed=7, skip=skip, first=True)
    found = [f"before fence {p.fence}: {v}" for p in fences for v in p.verdicts]
    found += [f"at return: {v}" for v in end.verdicts]
    return [p.site for p in fences], [p.line for p in fences], (found or [None])[0]


def _fences_run():
    from repro.api import Volume, VolumeConfig

    out = {}
    for name, (setup, *steps) in FENCE_AUDIT_OPS.items():
        vol = Volume.create(2 << 20, VolumeConfig(crash_tracking=True,
                                                  inode_count=32))
        with vol.session("setup", uid=0) as s:
            for d in ("/d", "/e"):
                s.mkdir(d)
                s.close(s.creat(f"{d}/warm"))
                s.unlink(f"{d}/warm")
            setup(s)
        vol.close()
        vol.device.drain()
        image = vol.device.durable_image()
        # The reference run: the namespaces the steps go through.
        ref = Volume.mount(image).session("ref", uid=0)
        states = [_namespace(ref)]
        for step in steps:
            step(ref)
            states.append(_namespace(ref))
        sites, lines, baseline = _audit_run(image, name, 0, states)
        out[name] = {"sites": sites, "lines": lines, "baseline": baseline,
                     "skipped": [_audit_run(image, name, k, states)[2]
                                 for k in range(1, len(sites) + 1)]}
    return out


def _fences_render(data) -> str:
    lines = ["== fence audit: each fence skipped in turn, crash images "
             "mounted ==", "",
             f"{'op':<15}{'fence':>6}  {'site':<29}violating image (first)",
             "-" * 94]
    for name, row in data.items():
        for k, (site, reason) in enumerate(zip(row["sites"], row["skipped"]), 1):
            other = FENCE_NEEDED_BY.get((name, site))
            lines.append(f"{name:<15}{k:>6}  {site:<29}"
                         f"{reason or (f'needed by {other}' if other else 'none')}")
        lines.append(f"{name:<15}{'none':>6}  {'(every fence taken)':<29}"
                     f"{row['baseline'] or 'none'}")
    sites = dict.fromkeys((site, line) for row in data.values()
                          for site, line in zip(row["sites"], row["lines"]))
    lines += ["", "fence lines:"]
    lines += [f"  {site:<29}{line}" for site, line in sites]

    def counts(ops):
        return f"{'/'.join(ops)}: " + "/".join(str(len(data[op]["sites"])) for op in ops)
    return "\n".join(lines + [
        "", f"(* = -{_AUDIT_NAME})",
        "fences per " + counts(("creat", "unlink", "mkdir", "rmdir", "rename")),
        "fences per " + counts(("pwrite", "append", "truncate")),
        "fences per " + counts(("tx3", "tx3+unlink"))])


def _shown_by(data, name: str, site: str) -> Optional[str]:
    """The violation skipping ``site``'s fence shows in the row
    ``FENCE_NEEDED_BY`` names for ``(name, site)``, if any."""
    row = data.get(FENCE_NEEDED_BY.get((name, site)))
    return row and next((reason for s, reason in zip(row["sites"], row["skipped"])
                         if s == site and reason), None)


def _fences_check(data) -> List[str]:
    """Skipping the §4.2 fence before the marker leaves a torn dentry, as
    Table 1 says; each op issues ``FENCES_PER_OP`` fences; skipping any one
    of them yields a violating image — in the op's own row, or at the same
    site in the row ``FENCE_NEEDED_BY`` names; taking them all yields
    none."""
    creat = data["creat"]
    control = [reason or "" for line, reason in zip(creat["lines"], creat["skipped"])
               if "§4.2" in line]
    return _unmet(
        (not control or not any(cls in control[0] for cls in TORN_CLASSES),
         "§4.2 control: skipping the fence before the marker found "
         f"{control[0] if control else 'no such fence'!r}, not a torn or "
         "dangling dentry"),
        *[(len(row["sites"]) != FENCES_PER_OP[name],
           f"{name}: {len(row['sites'])} fences (want {FENCES_PER_OP[name]})")
          for name, row in data.items()],
        *[(reason is None and _shown_by(data, name, site) is None,
           f"{name}: skipping fence {k} ({site}) found no violating image"
           + (f", nor in {FENCE_NEEDED_BY[(name, site)]}"
              if (name, site) in FENCE_NEEDED_BY else ""))
          for name, row in data.items()
          for k, (site, reason) in enumerate(zip(row["sites"], row["skipped"]), 1)],
        *[(row["baseline"] is not None,
           f"{name}: violating image with every fence taken: {row['baseline']}")
          for name, row in data.items()])


# -- The registry ------------------------------------------------------------ #

EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", "Table 1: the six bugs, both configurations",
               _table1_run, _table1_render, _table1_check),
    Experiment("fig3", "Figure 3: single-thread metadata throughput",
               _fig3_run, _fig3_render, _fig3_check),
    Experiment("fig4", "Figure 4: FxMark metadata scalability",
               _fig4_run, _fig4_render, _fig4_check),
    Experiment("table2", "Table 2: ArckFS+/ArckFS @48 threads + geomean",
               _table2_run, _table2_render, _table2_check),
    Experiment("fio", "§5.1/§5.2 data path: fio and FxMark data sweeps",
               _fio_run, _fio_render, _fio_check),
    Experiment("filebench", "§5.3 Filebench personalities, 1 and 16 threads",
               _filebench_run, _filebench_render, _filebench_check),
    Experiment("leveldb", "§5.3 LevelDB dbbench, functional mix + DES",
               _leveldb_run, _leveldb_render, _leveldb_check),
    Experiment("table4", "Table 4: sharing cost + verification scaling",
               _table4_run, _table4_render, _table4_check),
    Experiment("alloc", "per-thread page pools vs the global lock, extent writes",
               _alloc_run, _alloc_render, _alloc_check),
    Experiment("reads", "rwlock vs seqlock reads, DRBH locks, mapping-cache crossings",
               _reads_run, _reads_render, _reads_check),
    Experiment("tx", "transaction seal fences and the modeled commit speedup",
               _tx_run, _tx_render, _tx_check),
    Experiment("striping", "modeled bandwidth vs devices, per-member fan-out",
               _striping_run, _striping_render, _striping_check),
    Experiment("ablation", "what each ArckFS+ patch costs, mechanism by mechanism",
               _ablation_run, _ablation_render, _ablation_check),
    Experiment("fsck", "whole-volume fsck at 1/2/4/8 workers",
               _fsck_run, _fsck_render, _fsck_check),
    Experiment("fences", "which fences a crash needs, fence by fence",
               _fences_run, _fences_render, _fences_check),
)}
