"""The paper's experiments, one definition each, and the paper's numbers.

Every section of EXPERIMENTS.md is one :class:`Experiment`:

* ``run()`` regenerates the data (JSON-ready: string keys, numbers, lists)
  from the DES (:mod:`repro.perf.runner`), the workloads and the Table 1
  bug harness;
* ``render(data)`` is the text ``benchmarks/results/<name>.txt`` holds;
* ``check(data)`` is the list of the paper's claims the data does not meet
  (empty means reproduced).  It is pure, so a hand-made datum exercises it.

``python -m repro reproduce [NAME ...]`` and ``benchmarks/bench_paper.py``
are the two consumers; the paper-target tests import the reference values
below.  Tolerances are this reproduction's, the values are the paper's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.perf.runner import run_workload, sweep, table2_sweep
from repro.perf.stats import format_table, geomean
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

    return {
        "cells": [dataclasses.asdict(c) for c in table4()],
        # Two real LibFS apps ping-pong a file through the real kernel.
        "functional": {
            "verified": run_functional_sharing(file_kib=256, trust_group=False),
            "trust-group": run_functional_sharing(file_kib=256, trust_group=True),
        },
        "verify_scaling": verification_scaling(),
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
    return "\n".join(lines)


def _table4_check(data) -> List[str]:
    """Concurrent writes to a shared inode incur a sharing cost, which the
    trust group removes; the functional kernel shows the same structure."""
    v = {(c["system"], c["scenario"]): c["value"] for c in data["cells"]}
    plus, group = "arckfs+", "arckfs+-trust-group"
    verified, grouped = (data["functional"][mode]["bytes_verified_per_transfer"]
                         for mode in ("verified", "trust-group"))
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
         "transfer with a trust group (want < 10000)"))


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
)}
