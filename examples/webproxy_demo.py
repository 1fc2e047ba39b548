#!/usr/bin/env python3
"""Filebench Webproxy/Varmail on the real ArckFS+ LibFS (§5.3).

Runs the paper's *new* shared-directory framework (fine-grained filename
locks) with several worker threads, then the Trio artifact's
private-directory variant, and prints the flowop counts plus the LibFS's
operation statistics.

Run:  python examples/webproxy_demo.py
"""

import time

from repro.api import Volume, VolumeConfig
from repro.workloads.filebench import PERSONALITIES, FilebenchEngine


def run(personality_name: str, shared: bool, nthreads: int = 4) -> None:
    with Volume.create(96 * 1024 * 1024, VolumeConfig(inode_count=4096)) as vol:
        fs = vol.session("filebench", uid=1000).fs
        engine = FilebenchEngine(fs, PERSONALITIES[personality_name],
                                 nthreads=nthreads, shared=shared)
        t0 = time.perf_counter()
        flowops = engine.run(loops_per_thread=16)
        dt = time.perf_counter() - t0
        mode = "shared dir + filename locks" if shared else "private dirs (artifact)"
        print(f"  {personality_name:<9} [{mode:<28}] {flowops:5d} flowops, "
              f"{engine.loops:3d} loops, {dt * 1000:7.1f} ms wall "
              f"(creates={fs.stats.creates} unlinks={fs.stats.unlinks} "
              f"reads={fs.stats.reads} writes={fs.stats.writes})")


def main() -> None:
    print("Filebench on ArckFS+ (4 threads):")
    for personality in ("webproxy", "varmail"):
        run(personality, shared=True)
        run(personality, shared=False)


if __name__ == "__main__":
    main()
