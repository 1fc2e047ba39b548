"""Unit tests for the DES engine and the cost model/recipes plumbing."""

import pytest

from repro.perf.costmodel import COST
from repro.perf.recipes import phases
from repro.perf.runner import run_workload
from repro.perf.simulator import Experiment, Simulator
from repro.perf.stats import format_table, geomean, relative


class TestSimulator:
    def test_delays_accumulate(self):
        exp = Experiment()

        def stream(experiment, tid):
            while True:
                yield [("delay", 100.0)]

        stats = exp.run_threads(1, stream, horizon_ns=1000.0)
        assert stats[0].ops == 10

    def test_parallel_threads_independent(self):
        exp = Experiment()

        def stream(experiment, tid):
            while True:
                yield [("delay", 100.0)]

        exp.run_threads(4, stream, horizon_ns=1000.0)
        assert sum(t.ops for t in exp.threads) == 40

    def test_lock_serializes(self):
        exp = Experiment()

        def stream(experiment, tid):
            lock = experiment.lock("L")
            while True:
                yield [("lock", lock), ("delay", 100.0), ("unlock", lock)]

        exp.run_threads(4, stream, horizon_ns=1000.0)
        # One lock, 100ns critical section: ~10 total ops regardless of
        # thread count.
        assert sum(t.ops for t in exp.threads) <= 11

    def test_lock_fifo_fairness(self):
        exp = Experiment()

        def stream(experiment, tid):
            lock = experiment.lock("L")
            while True:
                yield [("lock", lock), ("delay", 100.0), ("unlock", lock)]

        stats = exp.run_threads(4, stream, horizon_ns=4000.0)
        counts = [t.ops for t in stats]
        assert max(counts) - min(counts) <= 1  # FIFO hands out turns evenly

    def test_server_capacity(self):
        exp = Experiment()

        def stream(experiment, tid):
            srv = experiment.server("S", capacity=2)
            while True:
                yield [("use", srv, 100.0)]

        exp.run_threads(8, stream, horizon_ns=1000.0)
        # Two slots, 100ns each: ~20 total.
        assert 18 <= sum(t.ops for t in exp.threads) <= 22

    def test_simulator_event_order(self):
        sim = Simulator()
        order = []
        sim.schedule(50, lambda: order.append("b"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(90, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 90

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)


class TestCostModel:
    def test_numa_latency(self):
        assert COST.pm_lat(0, read=True) == COST.pm_read_lat
        remote = COST.pm_lat(30, read=True)
        assert remote == pytest.approx(COST.pm_read_lat * COST.numa_remote_factor)

    def test_socket_mapping(self):
        assert COST.socket_of(0) == 0
        assert COST.socket_of(23) == 0
        assert COST.socket_of(24) == 1
        assert COST.socket_of(47) == 1

    def test_verify_time_scales_with_bytes(self):
        small = COST.verify_time(4096)
        big = COST.verify_time(1 << 30)
        assert big > 100 * small


class TestRecipes:
    def test_every_fs_and_op_has_a_recipe(self):
        ops = [
            {"op": "create", "dir": "d", "depth": 1, "bucket": 0, "tail": 0},
            {"op": "unlink", "dir": "d", "depth": 1, "bucket": 0},
            {"op": "open", "dir": "d", "depth": 5},
            {"op": "stat", "dir": "d", "depth": 2},
            {"op": "readdir", "dir": "d", "depth": 1, "entries": 16},
            {"op": "rename", "dir": "d", "dir2": "e", "depth": 1,
             "bucket": 0, "bucket2": 1, "cross": True, "is_dir": False},
            {"op": "truncate", "dir": "d", "depth": 1, "file": 0},
            {"op": "read", "size": 4096},
            {"op": "write", "size": 4096},
            {"op": "nop"},
        ]
        for fs in ("arckfs", "arckfs+", "ext4", "pmfs", "nova", "winefs",
                   "odinfs", "splitfs", "strata"):
            for ctx in ops:
                sym = phases(fs, dict(ctx), COST, nthreads=4, tid=1)
                assert sym, (fs, ctx)
                balance = 0
                for p in sym:
                    if p[0] == "lock":
                        balance += 1
                    elif p[0] == "unlock":
                        balance -= 1
                    assert balance >= 0, f"{fs}/{ctx}: unlock before lock"
                assert balance == 0, f"{fs}/{ctx}: unbalanced locks"

    def test_kernel_ops_pay_syscalls(self):
        for fs in ("ext4", "pmfs", "nova"):
            sym = phases(fs, {"op": "open", "dir": "d", "depth": 1}, COST, 1, 0)
            assert ("syscall",) in sym

    def test_arckfs_ops_pay_no_syscalls(self):
        for op in ("create", "open", "unlink"):
            ctx = {"op": op, "dir": "d", "depth": 1, "bucket": 0, "tail": 0}
            sym = phases("arckfs+", ctx, COST, 1, 0)
            assert ("syscall",) not in sym

    def test_dir_relocation_takes_the_lease(self):
        ctx = {"op": "rename", "dir": "a", "dir2": "b", "depth": 1,
               "bucket": 0, "bucket2": 1, "cross": True, "is_dir": True}
        sym = phases("arckfs+", ctx, COST, 1, 0)
        assert ("lock", "kernel.rename_lease") in sym
        sym_buggy = phases("arckfs", ctx, COST, 1, 0)
        assert ("lock", "kernel.rename_lease") not in sym_buggy

    def test_unknown_fs_rejected(self):
        with pytest.raises(ValueError):
            phases("zfs", {"op": "open", "depth": 1}, COST, 1, 0)

    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize("size", [4096, 8192, 1 << 20])
    def test_odinfs_delegation_charges_every_byte(self, op, size):
        """Every member a delegated extent touches serves its share on its
        own queue.  The recipe used to charge one member half of a 4 KiB
        page and the other member nothing: 2 KiB of media time."""
        read = op == "read"
        lat = COST.pm_read_lat if read else COST.pm_write_lat
        bw = COST.pm_stream_read_bw if read else COST.pm_stream_write_bw
        uses = [p for p in phases("odinfs", {"op": op, "size": size}, COST, 4, 1)
                if p[0] == "use"]
        assert len({p[1] for p in uses}) == len(uses) == min(COST.sockets, size // 4096)
        assert sum((p[2] - lat) * bw for p in uses) == pytest.approx(size)


class TestStats:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)  # zeros skipped

    def test_relative(self):
        out = relative({1: 5.0, 2: 10.0}, {1: 10.0, 2: 10.0})
        assert out == {1: 50.0, 2: 100.0}

    def test_format_table_renders(self):
        text = format_table("T", "fs", [1, 2], {"a": {1: 1.0, 2: 2.0}})
        assert "T" in text and "a" in text and "2.000" in text


class TestRunner:
    def test_throughput_scales_for_contention_free_workload(self):
        class W:
            name = "w"

            @staticmethod
            def op_ctx(tid, i, n):
                return {"op": "open", "dir": f"p{tid}", "depth": 1}

        one = run_workload("arckfs+", W, 1).mops
        eight = run_workload("arckfs+", W, 8).mops
        assert eight == pytest.approx(8 * one, rel=0.05)

    def test_result_reports_per_thread_ops(self):
        class W:
            name = "w"

            @staticmethod
            def op_ctx(tid, i, n):
                return {"op": "nop"}

        res = run_workload("arckfs+", W, 4)
        assert len(res.per_thread_ops) == 4
        assert all(ops > 0 for ops in res.per_thread_ops)
