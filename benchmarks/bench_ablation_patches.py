"""Ablation: what each ArckFS+ patch costs, mechanism by mechanism.

Two views:

1. **Functional mechanism counts** — run the real LibFS under each
   single-patch configuration and count the hardware-level events each
   patch adds (fences per create, RCU read-side sections per open,
   bucket-lock acquisitions per release, rename-lease grants per
   directory relocation).  These counts are the *structural* inputs the
   performance model builds on.

2. **DES cost attribution** — zero one calibrated mechanism constant at a
   time and re-run the single-thread Figure 3 ops, attributing the
   ArckFS→ArckFS+ slowdown to individual patches.
"""

from dataclasses import replace

from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.perf.costmodel import COST
from repro.perf.runner import run_workload
from repro.workloads.microbench import METADATA_OPS

from conftest import save_and_print


def _fs(config):
    vol = Volume.create(64 * 1024 * 1024,
                        VolumeConfig(config=config, inode_count=2048))
    return vol.device, vol.kernel, vol.session("abl", uid=0).fs


def mechanism_counts():
    rows = []

    # §4.2 — fences per create.
    for config in (ARCKFS, ARCKFS.with_patch(fence_before_marker=True,
                                             name="+fence")):
        device, _kernel, fs = _fs(config)
        fs.mkdir("/d")
        f0 = device.stats.fences
        for i in range(16):
            fs.close(fs.creat(f"/d/f{i}"))
        rows.append((f"{config.name:<12} fences/create",
                     (device.stats.fences - f0) / 16))

    # §4.5 — RCU read-side sections per open (5-deep path: the walk is
    # remembered, so a repeated open enters one section, for the leaf).
    for config in (ARCKFS, ARCKFS.with_patch(rcu_buckets=True, name="+rcu")):
        _device, _kernel, fs = _fs(config)
        fs.makedirs("/a/b/c/d")
        fs.write_file("/a/b/c/d/x", b"p")
        r0 = fs.rcu.read_sections
        for _ in range(16):
            fs.close(fs.open("/a/b/c/d/x"))
        rows.append((f"{config.name:<12} rcu-sections/open",
                     (fs.rcu.read_sections - r0) / 16))

    # §4.3 — bucket-lock acquisitions per directory release.
    for config in (ARCKFS, ARCKFS.with_patch(locked_release=True,
                                             name="+lockrel")):
        _device, _kernel, fs = _fs(config)
        fs.mkdir("/d")
        fs.close(fs.creat("/d/f"))
        fs.commit_path("/")
        mi = fs._resolve_dir(("d",))
        a0 = sum(b.lock.acquisitions for b in mi.dir.buckets.values())
        fs.release_path("/d")
        rows.append((f"{config.name:<12} bucket-locks/release",
                     sum(b.lock.acquisitions for b in mi.dir.buckets.values()) - a0))

    # §4.6 — rename-lease grants per directory relocation.
    for config in (ARCKFS, ARCKFS_PLUS):
        _device, kernel, fs = _fs(config)
        fs.mkdir("/src")
        fs.mkdir("/src/d")
        fs.mkdir("/dst")
        g0 = kernel.rename_lease.grants
        fs.rename("/src/d", "/dst/d")
        rows.append((f"{config.name:<12} lease-grants/dir-rename",
                     kernel.rename_lease.grants - g0))

    # §4.1 — per-operation verifications for directory relocation.
    for config in (ARCKFS, ARCKFS_PLUS):
        _device, kernel, fs = _fs(config)
        fs.mkdir("/src")
        fs.mkdir("/src/d")
        fs.mkdir("/dst")
        v0 = kernel.stats.verifications
        fs.rename("/src/d", "/dst/d")
        rows.append((f"{config.name:<12} verifications/dir-rename",
                     kernel.stats.verifications - v0))
    return rows


def des_attribution():
    """Per-op slowdown attribution by zeroing one mechanism at a time."""
    variants = {
        "full ArckFS+": COST,
        "without §4.5 RCU cost": replace(COST, rcu_read=0.0),
        "without §4.2 fence cost": replace(COST, fence=0.0),
    }
    out = {}
    for op in ("create", "open", "delete"):
        w = METADATA_OPS[op]
        base = run_workload("arckfs", w, 1).mops
        out[op] = {}
        for label, cost in variants.items():
            plus = run_workload("arckfs+", w, 1, cost=cost).mops
            denom = run_workload("arckfs", w, 1, cost=cost).mops
            out[op][label] = plus / denom * 100.0
        out[op]["ArckFS baseline Mops"] = base
    return out


def test_ablation(benchmark):
    rows, attribution = benchmark.pedantic(
        lambda: (mechanism_counts(), des_attribution()), rounds=1, iterations=1)

    lines = ["== Ablation 1: functional mechanism counts per patch =="]
    for label, value in rows:
        lines.append(f"  {label:<44} {value:8.2f}")
    lines.append("")
    lines.append("== Ablation 2: DES single-thread ratio with one mechanism zeroed ==")
    for op, cells in attribution.items():
        lines.append(f"  {op}:")
        for label, value in cells.items():
            unit = "%" if "Mops" not in label else " Mops"
            lines.append(f"    {label:<28} {value:8.2f}{unit}")
    save_and_print("ablation_patches", "\n".join(lines))

    d = dict(rows)
    # The §4.2 patch is exactly +1 fence per create.
    assert d["+fence       fences/create"] == d["arckfs       fences/create"] + 1
    # The §4.5 patch turns 0 read-side sections into >0 per open.
    assert d["arckfs       rcu-sections/open"] == 0
    assert d["+rcu         rcu-sections/open"] >= 1
    # The §4.3 patch takes every bucket lock on release (of the buckets
    # the directory has: they are born on first insert).
    assert d["+lockrel     bucket-locks/release"] >= 1
    assert d["arckfs       bucket-locks/release"] == 0
    # §4.6/§4.1: the lease and the per-op verification appear only in +.
    assert d["arckfs+      lease-grants/dir-rename"] >= 1
    assert d["arckfs       lease-grants/dir-rename"] == 0
    assert (d["arckfs+      verifications/dir-rename"]
            > d["arckfs       verifications/dir-rename"])
    # Zeroing the RCU cost recovers most of the open drop.
    assert attribution["open"]["without §4.5 RCU cost"] > 95.0
    assert attribution["create"]["without §4.2 fence cost"] > 95.0
