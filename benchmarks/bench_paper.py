"""Every experiment of ``repro.experiments``, one bench each.

Times one ``run()``, rewrites ``benchmarks/results/<name>.txt`` from
``render`` and fails on any unmet claim.  CI then demands that the
checked-in results did not change, which pins every deterministic count
the tables print::

    pytest benchmarks/bench_paper.py --benchmark-only
    git diff --exit-code -- benchmarks/results/
"""

import json

import pytest

from repro.experiments import EXPERIMENTS

from conftest import save_and_print


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper(benchmark, name):
    exp = EXPERIMENTS[name]
    data = benchmark.pedantic(exp.run, rounds=1, iterations=1)
    # What `repro reproduce --json` prints is what render and check read.
    assert json.loads(json.dumps(data)) == data
    save_and_print(name, exp.render(data))
    assert exp.check(data) == []
