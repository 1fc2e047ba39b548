"""The fsck pipeline runner: scan → cross-check → repair, in passes.

:func:`run_fsck` is the whole-volume entry point used by the CLI verb, the
tests, the benchmark and the crash-enumeration adapter.  It needs nothing
but a :class:`~repro.pm.device.PMDevice` — geometry comes from the
superblock, exactly like a cold mount — and never mutates the volume
unless ``repair=True``.

Repair runs check/repair passes until the volume is clean: some repairs
only expose the next layer (cutting a directory cycle creates an orphan
root, truncating a chain leaks its pages), so convergence takes up to a
handful of passes; the loop stops early when a pass repairs nothing.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional

from repro import obs
from repro.concurrency.parallel import stride_shards
from repro.core.corestate import CoreState
from repro.core.invariants import InodeShape
from repro.core.mkfs import load_geometry
from repro.fsck import auxcheck, check, parallel, scan
from repro.fsck.findings import F_SUPERBLOCK, Finding, FsckReport
from repro.fsck.repair import Repairer
from repro.pm.device import PMDevice
from repro.pm.layout import Geometry, Superblock

#: Safety bound on check/repair passes; every repair strictly shrinks the
#: damage, so real volumes converge far below this.
MAX_PASSES = 8


def _check_superblock(device: PMDevice, geom: Geometry) -> List[Finding]:
    """The recorded offsets nothing reads (``load_geometry``, which already
    accepted this superblock, re-derives them) must still match."""
    sb = Superblock.unpack(device.load(0, Superblock.SIZE))
    if (sb.itable_off, sb.bitmap_off, sb.data_off) != (
        geom.itable_off, geom.bitmap_off, geom.data_off
    ):
        return [Finding(
            F_SUPERBLOCK, "superblock offsets disagree with computed geometry",
            repairable=False, meta={"kind": "geometry"},
        )]
    return []


def _check_once(
    device: PMDevice,
    geom: Geometry,
    root_ino: int,
    workers: int,
    libfs=None,
) -> FsckReport:
    report = FsckReport(workers=workers)
    core = CoreState(device, geom)
    pipe = obs.pipeline_profile(f"fsck.w{workers}")

    # -- phase 1: sharded scan ------------------------------------------- #
    with obs.span("fsck.scan", category="fsck", workers=workers):
        shards = [scan.scan_shard(core, inos)
                  for inos in stride_shards(range(geom.inode_count), workers)]
    scans: Dict[int, InodeShape] = {}
    for sh in shards:
        for s in sh.inodes:
            scans[s.ino] = s
    scan_costs = [
        parallel.scan_shard_cost(sh.records_read, sh.pages_read, sh.dentries_parsed)
        for sh in shards
    ]
    scan_ns = max(scan_costs)
    if pipe is not None:
        for i, ns in enumerate(scan_costs):
            pipe.charge(i, "scan", ns)
            pipe.add_worker_total(i, ns)
        obs.charge(scan_ns, "fsck.scan")
    report.inodes_total = geom.inode_count
    report.inodes_valid = len(scans)
    report.dirs = sum(1 for s in scans.values() if s.rec.is_dir)
    report.files = report.inodes_valid - report.dirs
    report.dentries = sum(sh.dentries_parsed for sh in shards)
    report.bytes_scanned = sum(sh.bytes_scanned for sh in shards)

    # -- phase 2a: sharded per-inode cross-check -------------------------- #
    with obs.span("fsck.check", category="fsck", workers=workers):
        per_shard_inos = stride_shards(sorted(scans), workers)
        finding_lists = [check.check_inodes(scans, inos)
                         for inos in per_shard_inos]
        check_costs = [
            parallel.check_shard_cost(
                len(inos), sum(len(scans[i].records) for i in inos))
            for inos in per_shard_inos
        ]
        check_ns = max(check_costs) if check_costs else 0.0
        if pipe is not None:
            for i, ns in enumerate(check_costs):
                pipe.charge(i, "check", ns)
                pipe.add_worker_total(i, ns)
            obs.charge(check_ns, "fsck.check")
        for fl in finding_lists:
            report.findings.extend(fl)

        # -- phase 2b: serial graph merge ---------------------------------- #
        report.findings.extend(_check_superblock(device, geom))
        graph_findings, pages_claimed = check.check_graph(
            device, geom, scans, root_ino)
        report.findings.extend(graph_findings)
    report.pages_claimed = pages_claimed
    graph_ns = parallel.graph_cost(report.dentries, pages_claimed)
    if pipe is not None:
        pipe.charge_serial("graph", graph_ns)
        obs.charge(graph_ns, "fsck.graph")

    # -- optional aux cross-check (DRAM vs PM, §4.4/§4.5) ------------------ #
    if libfs is not None:
        report.findings.extend(auxcheck.check_libfs_aux(device, geom, libfs))

    report.phase_ns = {"scan": scan_ns, "check": check_ns, "graph": graph_ns}
    report.modeled_ns = scan_ns + check_ns + graph_ns
    return report


def run_fsck(
    device: PMDevice,
    *,
    workers: int = 1,
    repair: bool = False,
    libfs=None,
    max_passes: int = MAX_PASSES,
) -> FsckReport:
    """Check (and optionally repair) a whole volume; returns the final report.

    The report reflects the *last* check pass: after a successful
    ``repair=True`` run it proves the volume clean; cumulative repair
    counts are in ``report.repairs``.
    """
    t0 = time.perf_counter_ns()
    obs.count("fsck.runs")
    with obs.span("fsck.run", category="fsck", workers=workers, repair=repair):
        try:
            geom = load_geometry(device)
            sb = Superblock.unpack(device.load(0, Superblock.SIZE))
        except ValueError as exc:
            report = FsckReport(workers=workers, findings=[Finding(
                F_SUPERBLOCK, str(exc), repairable=False,
                meta={"kind": "magic"},
            )])
            report.wall_ns = time.perf_counter_ns() - t0
            return report

        report = _check_once(device, geom, sb.root_ino, workers, libfs)
        passes = 1
        repairs: Dict[str, int] = {}
        # Keyed on *findings*, not cleanliness: advisory findings (warm pool
        # reservations) leave the report clean but are still reconciled.
        while repair and report.findings and passes < max_passes:
            with obs.span("fsck.repair", category="fsck"):
                applied = Repairer(device, geom, sb.root_ino).apply(
                    report.findings)
            if not applied:
                break
            for cls, n in applied.items():
                repairs[cls] = repairs.get(cls, 0) + n
                obs.count("fsck.repairs", n, cls=cls)
            report = _check_once(device, geom, sb.root_ino, workers, libfs)
            passes += 1

    report.passes = passes
    report.repairs = repairs
    report.wall_ns = time.perf_counter_ns() - t0
    obs.count("fsck.passes", passes)
    obs.count("fsck.inodes", report.inodes_valid)
    obs.count("fsck.pages", report.pages_claimed)
    obs.count("fsck.dentries", report.dentries)
    for f in report.findings:
        obs.count("fsck.findings", cls=f.cls)
    return report


def fsck_checker(
    classes: Optional[FrozenSet[str]] = None,
    *,
    repair: bool = False,
) -> Callable[[PMDevice, object], Optional[str]]:
    """Whole-volume fsck as a :func:`~repro.pm.crash.explore` judge.

    The returned judge reboots nothing itself — the explorer hands it a
    fresh device per crash image — and returns the first finding as the
    verdict, or ``None`` when the image is clean.  ``classes``
    restricts which finding classes count as violations (e.g.
    :data:`~repro.fsck.findings.TORN_CLASSES` for the §4.2 fence bug:
    orphan inodes and leaked pages are legal, repairable crash states even
    under ArckFS+).  ``repair=True`` instead asserts repairability: the
    image only counts as a violation if repair fails to converge to clean.
    """

    def checker(device: PMDevice, _point: object) -> Optional[str]:
        report = run_fsck(device, repair=repair)
        findings = report.findings
        if classes is not None:
            findings = [f for f in findings if f.cls in classes]
        if findings:
            return f"{len(findings)} finding(s); first: {findings[0]}"
        return None

    return checker
