"""Regression tests for the performance model against the paper's numbers.

These assert the *reproduction targets*: the single-thread ratios of
Figure 3, every Table 2 cell (within tolerance), the headline geomean, and
the qualitative ordering of the nine systems.  If a cost-model change
breaks a paper-reported shape, these tests catch it.
"""

import pytest

from repro.perf.runner import run_workload, sweep, table2_sweep
from repro.perf.stats import geomean
from repro.workloads.fxmark import FXMARK
from repro.workloads.fio import FIO_WORKLOADS
from repro.workloads.microbench import METADATA_OPS

#: Table 2 of the paper: ArckFS+ / ArckFS at 48 threads (percent).
TABLE2 = {
    "DWTL": 101.25, "MRPL": 84.47, "MRPM": 92.09, "MRPH": 89.18,
    "MRDL": 75.45, "MRDM": 95.94, "MWCL": 99.71, "MWCM": 91.6,
    "MWUL": 118.82, "MWUM": 154.70, "MWRL": 92.25, "MWRM": 90.66,
}

#: Figure 3 single-thread ratios the paper reports in §5.1 (percent).
FIG3 = {"open": 83.3, "create": 92.8, "delete": 92.2}


def ratio_at(workload, threads):
    a = run_workload("arckfs", workload, threads).mops
    p = run_workload("arckfs+", workload, threads).mops
    return p / a * 100.0


def table2_ratios():
    """Percent ArckFS+/ArckFS per metadata workload at 48 threads; the sweep
    is simulated once per process and shared with ``repro table2``."""
    return {name: p / a * 100.0 for name, a, p in table2_sweep()}


class TestFig3SingleThread:
    @pytest.mark.parametrize("op,paper", sorted(FIG3.items()))
    def test_single_thread_ratio(self, op, paper):
        r = ratio_at(METADATA_OPS[op], 1)
        assert r == pytest.approx(paper, abs=1.5), f"{op}: {r:.2f} vs {paper}"

    def test_data_path_unaffected(self):
        """§5.1: read/write throughput comparable (all patches are
        metadata-side)."""
        for op in ("read-4k", "write-4k"):
            r = ratio_at(METADATA_OPS[op], 1)
            assert r == pytest.approx(100.0, abs=0.5)

    def test_arckfs_beats_kernel_fses_single_thread(self):
        for op in ("create", "open", "delete"):
            arck = run_workload("arckfs+", METADATA_OPS[op], 1).mops
            for fs in ("ext4", "pmfs", "nova", "winefs", "splitfs", "strata"):
                other = run_workload(fs, METADATA_OPS[op], 1).mops
                assert arck > other, f"{op}: arckfs+ {arck} <= {fs} {other}"


class TestTable2:
    @pytest.mark.parametrize("name,paper", sorted(TABLE2.items()))
    def test_48_thread_ratio(self, name, paper):
        r = table2_ratios()[name]
        # Tolerance: the multi-thread points are emergent, not calibrated.
        assert r == pytest.approx(paper, abs=4.0), f"{name}: {r:.2f} vs {paper}"

    def test_geomean_headline(self):
        """'ArckFS+ delivers a geometric mean of 97.23 % of ArckFS's
        throughput in metadata workloads under 48 threads.'"""
        g = geomean(r / 100 for r in table2_ratios().values()) * 100
        assert g == pytest.approx(97.23, abs=1.5), f"geomean {g:.2f}"

    def test_worst_case_is_mrdl(self):
        """'The largest throughput drop occurs in MRDL.'"""
        ratios = table2_ratios()
        assert min(ratios, key=ratios.get) == "MRDL"

    def test_unlink_workloads_exceed_100(self):
        """'The throughput increase in MWUM is caused by a change in cache
        line alignment...' — MWUL and MWUM are above 100 %."""
        assert table2_ratios()["MWUL"] > 100
        assert table2_ratios()["MWUM"] > 100


class TestScalabilityShape:
    def test_arckfs_scales_on_private_metadata(self):
        curve = sweep(["arckfs+"], FXMARK["MRPL"], [1, 8, 24, 48])["arckfs+"]
        assert curve[8] > 6 * curve[1]
        assert curve[48] > 30 * curve[1]

    def test_ext4_create_collapses_on_journal_lock(self):
        curve = sweep(["ext4"], FXMARK["MWCL"], [1, 8, 48])["ext4"]
        # The jbd2 lock caps scaling well below linear.
        assert curve[48] < 4 * curve[1]

    def test_arckfs_dominates_at_scale(self):
        """Fig. 4: ArckFS family on top of every metadata workload at 48."""
        for name in ("MWCL", "MWUL", "MRPL"):
            arck = run_workload("arckfs+", FXMARK[name], 48).mops
            for fs in ("ext4", "pmfs", "nova", "splitfs", "strata"):
                other = run_workload(fs, FXMARK[name], 48).mops
                assert arck > other, f"{name}: {fs} {other} >= arckfs+ {arck}"

    def test_strata_metadata_bottlenecks(self):
        """The trusted digestion queue caps Strata far below linear."""
        curve = sweep(["strata"], FXMARK["MWCL"], [1, 48])["strata"]
        assert curve[48] < 12 * curve[1]

    def test_fio_write_delegation_wins_at_scale(self):
        """§5.2: direct access + I/O delegation put ArckFS (and OdinFS)
        above the non-delegating kernel FSes once PM saturates."""
        w = FIO_WORKLOADS["seq-write"]
        at48 = {fs: sweep([fs], w, [48])[fs][48]
                for fs in ("arckfs+", "pmfs", "nova", "odinfs", "ext4")}
        assert at48["arckfs+"] > at48["pmfs"]
        assert at48["arckfs+"] > at48["nova"]
        assert at48["odinfs"] > at48["nova"]

    def test_fio_read_bandwidth_saturates(self):
        w = FIO_WORKLOADS["rand-read"]
        curve = sweep(["arckfs+"], w, [1, 8, 48])["arckfs+"]
        # Reads eventually hit aggregate PM bandwidth: sublinear at 48.
        assert curve[48] < 48 * curve[1]
        assert curve[48] >= curve[8]
