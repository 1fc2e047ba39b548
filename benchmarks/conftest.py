"""Benchmark-harness helpers: result persistence and common factories.

Every bench test runs with the metrics registry and the call-path profiler
enabled (tracing stays off: span collection allocates, counters do not
perturb the DES's virtual-time numbers).  At teardown the registry snapshot
is written next to the table output as
``benchmarks/results/<test>.metrics.json`` — the per-bench observability
sidecar that ``python -m repro obs diff`` gates in CI — plus a
``<test>.collapsed`` stack file (simulated-time weights) for flamegraphs.
"""

import os
import re

import pytest

from repro import obs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_and_print(name: str, text: str) -> None:
    """Write the regenerated table to benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")


@pytest.fixture(autouse=True)
def metrics_sidecar(request):
    """Collect metrics during each bench and persist them as a sidecar."""
    obs.reset()
    obs.enable(trace=False, profile=True)
    yield
    obs.disable()
    snap = obs.metrics.snapshot()
    collapsed = obs.profiler.collapsed(weight="sim")
    obs.reset()
    if not any(snap.values()):
        return
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    obs.write_snapshot(
        os.path.join(RESULTS_DIR, f"{safe}.metrics.json"),
        snap,
        bench=request.node.nodeid,
    )
    if collapsed:
        with open(os.path.join(RESULTS_DIR, f"{safe}.collapsed"), "w") as fh:
            fh.write(collapsed + "\n")


@pytest.fixture
def arckfs_plus_fs():
    from repro.api import Volume, VolumeConfig

    vol = Volume.create(64 * 1024 * 1024, VolumeConfig(inode_count=4096))
    fs = vol.session("bench", uid=0).fs
    yield fs
    # Republish the functional-path device/kernel/libfs counters so the
    # sidecar records them alongside whatever the bench itself counted.
    obs.publish_stats("pm", vol.device.stats)
    obs.publish_stats("kernel", vol.kernel.stats)
    obs.publish_stats("libfs", fs.stats)
    obs.publish_stats("alloc", vol.kernel.alloc.stats)
