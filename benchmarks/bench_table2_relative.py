"""Table 2 — relative performance of ArckFS+ vs ArckFS across FxMark's
metadata workloads at 48 threads, plus the §5.2 geomean headline (97.23 %).
"""

from repro.perf.runner import table2_sweep
from repro.perf.stats import geomean
from repro.workloads.fxmark import METADATA_WORKLOADS

from conftest import save_and_print

PAPER = {
    "DWTL": 101.25, "MRPL": 84.47, "MRPM": 92.09, "MRPH": 89.18,
    "MRDL": 75.45, "MRDM": 95.94, "MWCL": 99.71, "MWCM": 91.6,
    "MWUL": 118.82, "MWUM": 154.70, "MWRL": 92.25, "MWRM": 90.66,
}
PAPER_GEOMEAN = 97.23


def test_table2_relative_at_48_threads(benchmark):
    def run():
        return {name: (a, p, p / a * 100.0) for name, a, p in table2_sweep()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Table 2: ArckFS+ relative to ArckFS, FxMark metadata @48 threads =="]
    lines.append(f"{'workload':<10}{'ArckFS':>10}{'ArckFS+':>10}"
                 f"{'measured':>11}{'paper':>9}")
    lines.append("-" * 50)
    ratios = []
    for name in METADATA_WORKLOADS:
        a, p, r = results[name]
        ratios.append(r / 100)
        lines.append(f"{name:<10}{a:>10.2f}{p:>10.2f}{r:>10.2f}%{PAPER[name]:>8.2f}%")
    g = geomean(ratios) * 100
    lines.append("-" * 50)
    lines.append(f"{'geomean':<10}{'':>20}{g:>10.2f}%{PAPER_GEOMEAN:>8.2f}%")
    save_and_print("table2_relative", "\n".join(lines))

    assert abs(g - PAPER_GEOMEAN) < 1.5
    for name in METADATA_WORKLOADS:
        assert abs(results[name][2] - PAPER[name]) < 4.0, name
