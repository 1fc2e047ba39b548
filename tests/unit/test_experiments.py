"""The paper-experiment registry: every check names the claim a datum
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
    FIG4_RIVALS,
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
                "functional": {"verified": {"bytes_verified_per_transfer": 267424.0},
                               "trust-group": {"bytes_verified_per_transfer": 1184.0}}},
               ("functional", "trust-group", "bytes_verified_per_transfer"), 20000.0,
               "functional: 20000 B verified per transfer with a trust group "
               "(want < 10000)"),
}


def test_every_experiment_has_a_known_bad_datum():
    assert set(CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_names_the_unmet_claim(name):
    good, path, value, claim = CASES[name]
    bad = copy.deepcopy(good)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    check = EXPERIMENTS[name].check
    assert check(good) == []
    assert check(bad) == [claim]


def test_every_tracked_result_is_an_experiment():
    """What ``bench_paper.py`` regenerates is every tracked results table
    but the ablation bench's, so CI's results diff leaves none out."""
    try:
        out = subprocess.run(["git", "ls-files", "benchmarks/results/*.txt"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if out.returncode or not out.stdout:
        pytest.skip("not a git checkout")
    stems = {os.path.basename(p)[:-len(".txt")] for p in out.stdout.split()}
    assert stems - {"ablation_patches"} == set(EXPERIMENTS)
