"""The experiment registry: every check names the claim a datum
misses, and every tracked results file belongs to an experiment.

No experiment runs here: each check is pure, so a hand-made datum that
meets every claim, and a copy with one value broken, exercise it.
"""

import copy
import os
import subprocess

import pytest

from repro.experiments import (
    EXPERIMENTS,
    FIG3_META_OPS,
    FIG3_PAPER,
    FENCES_PER_OP,
    FIG4_RIVALS,
    FSCK_WORKERS,
    SEED_PWRITE_1MIB,
    SYSTEMS,
    TABLE2_PAPER,
    TABLE2_PAPER_GEOMEAN,
    TABLE4_PAPER,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bugs(manifested):
    return [{"bug": bug, "title": f"bug {bug}", "config_name": "x",
             "manifested": manifested, "detail": "d"} for bug in ("4.1", "4.3")]


def _row(arck, rest, **others):
    """Mops/s: ``arck`` for both ArckFS variants, ``rest`` for the others."""
    return {fs: arck if fs.startswith("arckfs") else others.get(fs, rest)
            for fs in SYSTEMS}


def _sweep(*values):
    """``{"<threads>": value}`` over 1, 2, 4, 8 threads (or devices)."""
    return dict(zip(("1", "2", "4", "8"), values))


def _fsck(total_ms, scan_ms):
    """One worker count's price of the one fsck run."""
    return {"modeled_ns": total_ms * 1e6, "phase_ns": {"scan": scan_ms * 1e6}}


def _fences():
    """The audit after the merges: every fence flagged as needed."""
    append = ["CoreState.append_dentry"] * 2
    lines = ["self.mem.sfence()  # the ArckFS+ one-line patch (§4.2)",
             "self.mem.sfence()"]
    two = {"sites": append, "lines": lines, "baseline": None,
           "skipped": ["before fence 2: fsck dangling-dentry",
                       "at return: namespace -/d/b*"]}
    one = {"sites": ["LibFS.unlink"], "lines": ["cs.mem.sfence()"],
           "baseline": None, "skipped": ["at return: namespace +/d/a*"]}
    out = {name: copy.deepcopy(one if FENCES_PER_OP[name] == 1 else two)
           for name in FENCES_PER_OP}
    for name, count in FENCES_PER_OP.items():
        if count > 2:
            out[name] = {"sites": [f"CoreState.{name}"] * count,
                         "lines": ["self.mem.sfence()"] * count, "baseline": None,
                         "skipped": ["at return: file /d/data size 4096"] * count}
    return out


#: name -> (a datum meeting every claim, path to one value, the bad value,
#: the one claim that value breaks)
CASES = {
    "table1": ({"arckfs": _bugs(True), "arckfs+": _bugs(False)},
               ("arckfs+", 1, "manifested"), True,
               "§4.3 bug 4.3: manifested under arckfs+"),
    "fig3": ({"arckfs": {op: 1.0 for op in FIG3_META_OPS},
              "arckfs+": {op: FIG3_PAPER.get(op, 90.0) / 100 for op in FIG3_META_OPS},
              "ext4": {op: 0.5 for op in FIG3_META_OPS}},
             ("arckfs+", "open"), 0.9,
             f"open: arckfs+/arckfs 90.00% vs paper {FIG3_PAPER['open']}% "
             "(tolerance 2.0)"),
    "fig4": ({"MWCL": {fs: {"1": 1.0, "48": 2.0 if fs in FIG4_RIVALS else 10.0}
                       for fs in SYSTEMS}},
             ("MWCL", "ext4", "48"), 20.0, "MWCL: ext4 beats ArckFS @ 48 threads"),
    "table2": ({"workloads": {name: {"arckfs": 1.0, "arckfs+": p / 100, "ratio_pct": p}
                              for name, p in TABLE2_PAPER.items()},
                "geomean_pct": TABLE2_PAPER_GEOMEAN},
               ("geomean_pct",), 90.0,
               f"geomean 90.00% vs paper {TABLE2_PAPER_GEOMEAN}% (tolerance 1.5)"),
    "fio": ({"seq-write": {fs: {"1": 1.0, "48": v} for fs, v in
                           _row(3.0, 2.0, odinfs=3.0).items()}},
            ("seq-write", "odinfs", "48"), 1.0,
            "seq-write: odinfs (delegation) behind nova @ 48 threads"),
    "filebench": ({"sim": {"varmail-shared": {t: _row(1.0, 0.5)
                                              for t in ("1", "16")}},
                   "flowops": 10},
                  ("sim", "varmail-shared", "16", "arckfs+"), 0.9,
                  "varmail-shared @ 16 threads: arckfs+/arckfs 90.0% outside (95, 105)"),
    "leveldb": ({"functional": {cfg: {"fillseq": {"writes": 100, "data_dominance": 0.98}}
                                for cfg in ("arckfs+", "arckfs")},
                 "sim": {"readrandom": _row(4.0, 3.0)}},
                ("functional", "arckfs+", "fillseq", "data_dominance"), 0.5,
                "arckfs+ fillseq: data ops 50.0% <= 85%"),
    "table4": ({"cells": [{"system": system, "scenario": scenario, "value": value}
                          for (system, scenario), value in TABLE4_PAPER.items()],
                "functional": {"verified": {"bytes_verified_per_transfer": 267424.0,
                                            "verify_batch_sizes": {"1": 5, "65": 5}},
                               "trust-group": {"bytes_verified_per_transfer": 1184.0}},
                "verify_scaling": [{"speedup": x, "pages": 65}
                                   for x in (1.0, 1.84, 3.16, 4.94)],
                "critical_units": {"1": 330, "8": 50}},
               ("functional", "trust-group", "bytes_verified_per_transfer"), 20000.0,
               "functional: 20000 B verified per transfer with a trust group "
               "(want < 10000)"),
    "alloc": ({"des_mops": {"global": _sweep(1.49, 2.38, 2.38, 2.38),
                            "pooled": _sweep(3.59, 7.18, 14.36, 28.69)},
               "pooled": {"lock_acquires": 16, "fences": 16, "pool_refills": 16},
               "after_extent": {"pool_refills": 0, "fences": 0},
               "extent": {"fences": 7, "write_extents": 1, "read_back": True}},
              ("extent", "fences"), 200,
              "1 MiB pwrite: 200 persist calls, not 4x below the seed's "
              f"{SEED_PWRITE_1MIB['fences']}"),
    "reads": ({"des": {"rwlock": {"mops": _sweep(2.44, 4.54, 5.55, 5.55),
                                  "mean_op_ns": 1440.0, "contended": 11119},
                       "seqlock": {"mops": _sweep(4.12, 8.23, 16.46, 32.92),
                                   "mean_op_ns": 243.0, "contended": 0}},
               "drbh": {"arckfs": {"read_lock_acquisitions": 64, "bytes_read": 262144},
                        "arckfs+": {"read_lock_acquisitions": 0, "bytes_read": 262144}},
               "readcache": {"kernel_crossings": 0, "crossings_avoided": 1,
                             "cache_hits": 1, "validations": 16, "read_back": True}},
              ("drbh", "arckfs+", "read_lock_acquisitions"), 64,
              "DRBH arckfs+: 64 read locks (want 0)"),
    "tx": ({str(n): {"per_op_fences": per_op, "tx_seal_fences": 2,
                     "overwrite_commit_fences": 3,
                     "log_pages": 5, "log_bytes": 19588}
            for n, per_op in ((1, 11), (4, 32), (16, 116), (64, 454))},
           ("64", "overwrite_commit_fences"), 4,
           "overwrite commit fences grow with the batch: "
           "{1: 3, 4: 3, 16: 3, 64: 4}"),
    "striping": ({"modeled_gbps": {"write": _sweep(7.99, 15.97, 31.89, 63.57),
                                   "read": _sweep(9.99, 19.95, 39.80, 79.21)},
                  "fanout": {"devices": 4, "bytes_stored": [1049000, 1048576] * 2,
                             "ntstores": [64, 64, 64, 64],
                             "fences": [13, 1, 1, 1], "read_back": True}},
                 ("fanout", "fences"), [13, 1, 0, 1],
                 "a member took no persist call: [13, 1, 0, 1]"),
    "ablation": ({"mechanisms": {
                      "fences/create": {"arckfs": 1.1875, "+fence": 2.1875},
                      "rcu-sections/open": {"arckfs": 0.0, "+rcu": 1.0},
                      "bucket-locks/release": {"arckfs": 0, "+lockrel": 1},
                      "lease-grants/dir-rename": {"arckfs": 0, "arckfs+": 1},
                      "verifications/dir-rename": {"arckfs": 0, "arckfs+": 3}},
                  "attribution": {"create": {"without §4.2 fence cost": 99.22},
                                  "open": {"without §4.5 RCU cost": 100.0}}},
                 ("mechanisms", "lease-grants/dir-rename", "arckfs"), 1,
                 "§4.6: 1 lease grants unpatched"),
    "fsck": ({"findings": [], "workers": {
                 str(w): _fsck(total, scan) for w, total, scan in zip(
                     FSCK_WORKERS, (5.821, 3.102, 1.742, 1.063),
                     (4.704, 2.356, 1.182, 0.594))}},
             ("findings",), [{"class": "orphan-inode"}],
             "1 finding(s) on the clean volume"),
    "fences": (_fences(), ("unlink", "skipped", 0), None,
               "unlink: skipping fence 1 (LibFS.unlink) found no violating image"),
}

#: Further claims of an experiment: (name, path, the bad value, the claim).
MORE_CASES = [
    ("table4", ("critical_units", "8"), 200,
     "pipelined: critical path 200 of 330 units (want <= 1/2.5)"),
    ("table4", ("verify_scaling", 0, "pages"), 64,
     "verification scaling: priced at 64 pages per transfer, the twin's "
     "largest batch is 65"),
    ("fsck", ("workers", "8", "phase_ns", "scan"), 1.5e6,
     "8 workers: 3.14x on the scan (want >= 4)"),
    ("alloc", ("after_extent", "pool_refills"), 1,
     "after a 128-page extent, a 4-page alloc: 1 refills, 0 fences (want 0, 0)"),
    ("fences", ("tx3", "skipped", 2), None,
     "tx3: skipping fence 3 (CoreState.tx3) found no violating image"),
    ("fences", ("truncate", "baseline"), "at return: raw fsck page-unallocated",
     "truncate: violating image with every fence taken: "
     "at return: raw fsck page-unallocated"),
    ("tx", ("1", "overwrite_commit_fences"), 4,
     "overwrite commit fences 4 at batch 1 (want <= 3)"),
]


def test_every_experiment_has_a_known_bad_datum():
    assert set(CASES) == set(EXPERIMENTS)


def _assert_names_claim(name, path, value, claim):
    good = CASES[name][0]
    bad = copy.deepcopy(good)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    check = EXPERIMENTS[name].check
    assert check(good) == []
    assert check(bad) == [claim]


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_names_the_unmet_claim(name):
    _assert_names_claim(name, *CASES[name][1:])


@pytest.mark.parametrize("name,path,value,claim", MORE_CASES,
                         ids=[f"{c[0]}-{c[1][0]}" for c in MORE_CASES])
def test_check_names_a_further_claim(name, path, value, claim):
    _assert_names_claim(name, path, value, claim)


def test_every_tracked_result_is_an_experiment():
    """What ``bench_paper.py`` regenerates is every tracked results table,
    so CI's results diff leaves none out."""
    try:
        out = subprocess.run(["git", "ls-files", "benchmarks/results/*.txt"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if out.returncode or not out.stdout:
        pytest.skip("not a git checkout")
    stems = {os.path.basename(p)[:-len(".txt")] for p in out.stdout.split()}
    assert stems == set(EXPERIMENTS)
