"""The sharing-cost experiment (§5.4 / Table 4).

Configuration follows the Trio paper's §6.5: multiple applications update a
shared file (4 KiB writes to a 2 MiB or 1 GiB file) or create files in a
shared directory ("Create 10" / "Create 100" files present), with ownership
bouncing between the applications.  Three systems:

* **NOVA** — a kernel FS: sharing is native, every op pays the syscall/CoW
  path, no transfer cost;
* **ArckFS+** — every ownership transfer verifies the inode's *metadata*
  (index pages for files, the log for directories) and rebuilds the
  acquiring LibFS's auxiliary state;
* **ArckFS+ trust group** — verification skipped inside the group; mapping
  and aux-rebuild costs remain.

The analytic model below charges, per ownership transfer,
``map_fixed + pages·map_per_page`` (mapping + page-table work) plus — when
verification applies — ``verify_fixed + pages·verify_per_page``.  Writes
are batched ``WRITES_PER_TRANSFER`` per ownership period (the apps write
alternately in chunks).  Magnitudes are calibrated to Table 4; the *shape*
— the 1 GiB collapse under verification and its recovery via trust groups —
is structural (per-page verification cost).

A *functional* twin (``run_functional_sharing``) performs the same
ping-pong on the real kernel/LibFS stack and reports the kernel's actual
verified-byte counters, demonstrating the same structure end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

PAGE = 4096

# -- calibrated model constants (ns), provenance: Table 4 ------------------- #

WRITE_4K_DIRECT = 1900.0  # ArckFS userspace 4 KiB write
NOVA_WRITE_4K = 3300.0  # syscall + CoW + log
WRITES_PER_TRANSFER = 512  # batch of writes per ownership period

MAP_FIXED = 5_000.0
MAP_PER_PAGE = 0.4
VERIFY_FIXED = 10_000.0
VERIFY_PER_PAGE = 15.0

# create-in-shared-directory model (per-operation ownership bounce)
CREATE_BASE = 594.0  # ArckFS create without the transfer
DIR_TRANSFER_FIXED = 9_535.0  # map + verify fixed part per bounce
DIR_VERIFY_PER_ENTRY = 5.1
DIR_REBUILD_PER_ENTRY = 16.6
NOVA_CREATE_10 = 6_380.0
NOVA_CREATE_100 = 6_080.0


@dataclass(frozen=True)
class SharingResult:
    """One Table 4 cell."""

    system: str
    scenario: str
    value: float
    unit: str  # "GiB/s" or "us"


def _file_transfer_cost(file_bytes: int, verified: bool) -> float:
    pages = file_bytes // PAGE
    cost = MAP_FIXED + pages * MAP_PER_PAGE
    if verified:
        cost += VERIFY_FIXED + pages * VERIFY_PER_PAGE
    return cost


def shared_write_throughput(file_bytes: int, system: str) -> float:
    """GiB/s of 4 KiB writes to a shared file under ownership ping-pong."""
    if system == "nova":
        op = NOVA_WRITE_4K
    elif system in ("arckfs+", "arckfs"):
        op = WRITE_4K_DIRECT + _file_transfer_cost(file_bytes, True) / WRITES_PER_TRANSFER
    elif system == "arckfs+-trust-group":
        op = WRITE_4K_DIRECT + _file_transfer_cost(file_bytes, False) / WRITES_PER_TRANSFER
    else:
        raise ValueError(system)
    return PAGE / op * 1e9 / (1024**3)


def shared_create_latency_us(entries: int, system: str) -> float:
    """Per-create latency (µs) in a directory shared among applications."""
    if system == "nova":
        # Matched to the reported pair (the slight negative slope between
        # 10 and 100 entries is measurement noise in the paper).
        return (NOVA_CREATE_10 + (NOVA_CREATE_100 - NOVA_CREATE_10)
                * (entries - 10) / 90.0) / 1000.0
    if system in ("arckfs+", "arckfs"):
        ns = CREATE_BASE + DIR_TRANSFER_FIXED + DIR_VERIFY_PER_ENTRY * entries
        return ns / 1000.0
    if system == "arckfs+-trust-group":
        ns = CREATE_BASE + DIR_REBUILD_PER_ENTRY * entries
        return ns / 1000.0
    raise ValueError(system)


def table4() -> List[SharingResult]:
    """All 12 cells of Table 4 (3 systems × 4 scenarios)."""
    systems = ["nova", "arckfs+", "arckfs+-trust-group"]
    out: List[SharingResult] = []
    for system in systems:
        out.append(SharingResult(system, "4KB-write 2MB",
                                 shared_write_throughput(2 * 1024**2, system), "GiB/s"))
    for system in systems:
        out.append(SharingResult(system, "4KB-write 1GB",
                                 shared_write_throughput(1024**3, system), "GiB/s"))
    for system in systems:
        out.append(SharingResult(system, "Create 10",
                                 shared_create_latency_us(10, system), "us"))
    for system in systems:
        out.append(SharingResult(system, "Create 100",
                                 shared_create_latency_us(100, system), "us"))
    return out


# --------------------------------------------------------------------------- #
# Functional twin
# --------------------------------------------------------------------------- #


def run_functional_sharing(file_kib: int = 256, rounds: int = 4,
                           trust_group: bool = False) -> Dict[str, object]:
    """Two real LibFS apps ping-pong writes to one shared file.

    Returns the kernel counters that embody the sharing cost: bytes
    verified and snapshotted per ownership transfer.  With a trust group,
    both collapse to (near) zero — the §5.4 claim, demonstrated on the
    functional stack rather than the analytic model.

    ``verify_batch_sizes`` is the verifier's check-batch histogram (batch
    size -> how many, keyed by the size as a string so the result is
    JSON), which ``CostModel.verify_critical_units`` prices at any worker
    count.
    """
    from repro.api import Volume, VolumeConfig

    vol = Volume.create(
        max(64, 4 * file_kib // 1024 + 16) * 1024 * 1024,
        VolumeConfig(inode_count=256, name="sharing"),
    )
    kernel = vol.kernel
    group = "g" if trust_group else None
    with vol:
        apps = [vol.session("app1", group=group), vol.session("app2", group=group)]
        apps[0].write_file("/shared", b"\0" * (file_kib * 1024))
        apps[0].release_all()
        v0 = kernel.stats.bytes_verified
        s0 = kernel.stats.snapshot_bytes
        for r in range(rounds):
            app = apps[r % 2]
            fd = app.open("/shared")
            app.pwrite(fd, b"x" * 4096, (r * 4096) % (file_kib * 1024))
            app.close(fd)
            app.release_all()
        transfers = rounds
        out = {
            "bytes_verified_per_transfer": (kernel.stats.bytes_verified - v0) / transfers,
            "snapshot_bytes_per_transfer": (kernel.stats.snapshot_bytes - s0) / transfers,
            "group_skips": kernel.stats.group_skips,
            "verifications": kernel.stats.verifications,
            "verify_batch_sizes": {str(n): k for n, k in sorted(
                kernel.verifier.pstats.batch_sizes.items())},
        }
    return out


# --------------------------------------------------------------------------- #
# Verification scaling (the pipelined engine on the Table 4 round-trip)
# --------------------------------------------------------------------------- #


def verification_scaling(file_kib: int = 256,
                         workers=(1, 2, 4, 8)) -> List[Dict[str, float]]:
    """Modeled per-transfer verification time/speedup vs worker count.

    The scenario is the 256 KiB shared-file round-trip: every ownership
    bounce re-verifies the file's index page plus its data pages (the
    functional twin's page batch; Table 4's check compares the two).
    Times come from the calibrated cost model's pipeline helper (serial
    enumerate/commit + slowest check shard); speedups are relative to one
    worker — the serial seed path.
    """
    from repro.perf.costmodel import COST

    pages = file_kib * 1024 // PAGE + 1  # data pages + the index page
    t1 = COST.verify_pipeline_time(pages, workers=1)
    rows = []
    for w in workers:
        tw = COST.verify_pipeline_time(pages, workers=w)
        rows.append({
            "workers": w,
            "pages": pages,
            "ns_per_transfer": tw,
            "speedup": t1 / tw,
        })
    return rows
