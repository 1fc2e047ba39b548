"""§5.3 LevelDB — dbbench over the LSM store.

Functional part: run dbbench on the real KV store over ArckFS+ and ArckFS
and show the generated op mix is data-dominated with near-identical op
counts (the paper: "ArckFS+ and ArckFS exhibit similar performance").
Simulation part: feed the measured mix to the DES across all systems.
"""

from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.perf.runner import run_workload
from repro.perf.stats import format_table
from repro.workloads.leveldb_bench import DBBENCH_SIMS, run_dbbench

from conftest import save_and_print

SYSTEMS = ["arckfs+", "arckfs", "ext4", "pmfs", "nova", "odinfs", "winefs",
           "splitfs", "strata"]


def _fresh(config):
    vol = Volume.create(64 * 1024 * 1024,
                        VolumeConfig(config=config, inode_count=4096))
    return vol.session("db", uid=0).fs


def test_leveldb_dbbench(benchmark):
    def run():
        functional = {}
        for cfg_name, cfg in (("arckfs+", ARCKFS_PLUS), ("arckfs", ARCKFS)):
            functional[cfg_name] = {
                w: run_dbbench(_fresh(cfg), w, n=300)
                for w in ("fillseq", "fillrandom", "readrandom")
            }
        sim = {
            name: {fs: run_workload(fs, w, 8).mops for fs in SYSTEMS}
            for name, w in DBBENCH_SIMS.items()
        }
        return functional, sim

    functional, sim = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== LevelDB dbbench: functional op mix (300 KV ops each) =="]
    lines.append(f"{'config':<10}{'workload':<12}{'reads':>7}{'writes':>8}"
                 f"{'KB read':>9}{'KB written':>11}{'ns-ops':>8}{'data%':>7}")
    lines.append("-" * 72)
    for cfg_name, per_w in functional.items():
        for w, res in per_w.items():
            lines.append(
                f"{cfg_name:<10}{w:<12}{res.reads:>7}{res.writes:>8}"
                f"{res.bytes_read // 1024:>9}{res.bytes_written // 1024:>11}"
                f"{res.namespace_ops:>8}{res.data_dominance * 100:>6.1f}%"
            )
    lines.append("")
    lines.append(format_table("dbbench mixes on the DES, 8 threads", "mix",
                              SYSTEMS, {k: v for k, v in sim.items()},
                              unit="Mops/s"))
    save_and_print("leveldb_dbbench", "\n".join(lines))

    # §5.3 claims: data-dominated mix, near-identical variants, and the
    # ArckFS family outperforming the others for the same reasons as §5.1/2.
    for cfg_name, per_w in functional.items():
        for w, res in per_w.items():
            assert res.data_dominance > 0.85, (cfg_name, w)
    for w in ("fillseq", "fillrandom", "readrandom"):
        a = functional["arckfs"][w]
        p = functional["arckfs+"][w]
        assert abs(a.writes - p.writes) <= a.writes * 0.02 + 2
    for name, row in sim.items():
        ratio = row["arckfs+"] / row["arckfs"]
        assert 0.97 < ratio < 1.03
        assert row["arckfs+"] > row["ext4"]
