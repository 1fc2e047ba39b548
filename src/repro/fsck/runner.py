"""The fsck pipeline runner: scan → cross-check → repair, in passes.

:func:`run_fsck` is the whole-volume entry point used by the CLI verb, the
tests, the benchmark and the crash-enumeration adapter.  It needs nothing
but a :class:`~repro.pm.device.PMDevice` — geometry comes from the
superblock, exactly like a cold mount — and never mutates the volume
unless ``repair=True``.

:func:`check_volume` is one check pass, the one mount runs before it
builds the kernel's tables and makes its own repairs.

Repair runs check/repair passes until the volume is clean: some repairs
only expose the next layer (cutting a directory cycle creates an orphan
root, truncating a chain leaks its pages), so convergence takes up to a
handful of passes; the loop stops early when a pass repairs nothing.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.core.corestate import CoreState
from repro.core.invariants import InodeShape, Namespace, pages_read, resolve, scan
from repro.core.mkfs import load_geometry
from repro.fsck import auxcheck, check
from repro.fsck.findings import F_SUPERBLOCK, F_TX_TORN, Finding, FsckReport
from repro.fsck.repair import Repairer
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, Geometry, InodeRecord, Superblock

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


def check_volume(
    core: CoreState,
    records: List[InodeRecord],
    root_ino: int,
    libfs=None,
) -> Tuple[FsckReport, Dict[int, InodeShape], Namespace]:
    """One check pass over ``records`` (the inode table, as
    :meth:`CoreState.read_inodes` reads it): the report, and the shapes
    and namespace verdict it judged, which mount rebuilds its tables from
    and repairs by."""
    report = FsckReport()
    device, geom = core.mem, core.geom

    # -- phase 1: scan every slot ------------------------------------------ #
    with obs.span("fsck.scan", category="fsck"):
        scans = scan(core, records)
    report.work = {ino: (pages_read(s), len(s.records))
                   for ino, s in scans.items()}
    report.inodes_total = geom.inode_count
    report.inodes_valid = len(scans)
    report.dirs = sum(1 for s in scans.values() if s.rec.is_dir)
    report.files = report.inodes_valid - report.dirs
    report.dentries = sum(d for _p, d in report.work.values())
    report.bytes_scanned = (geom.inode_count * InodeRecord.SIZE
                            + sum(p for p, _d in report.work.values()) * PAGE_SIZE)

    # -- phase 2: per-inode cross-check, then the graph merge -------------- #
    with obs.span("fsck.check", category="fsck"):
        ns = resolve(scans, root_ino)
        report.findings.extend(check.check_inodes(scans))
        report.findings.extend(_check_superblock(device, geom))
        graph_findings, report.pages_claimed = check.check_graph(
            device, geom, scans, ns, root_ino)
        report.findings.extend(graph_findings)

    # -- optional aux cross-check (DRAM vs PM, §4.4/§4.5) ------------------ #
    if libfs is not None:
        report.findings.extend(auxcheck.check_libfs_aux(device, geom, libfs))

    return report, scans, ns


def run_fsck(
    device: PMDevice,
    *,
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
    with obs.span("fsck.run", category="fsck", repair=repair):
        try:
            geom = load_geometry(device)
            sb = Superblock.unpack(device.load(0, Superblock.SIZE))
        except ValueError as exc:
            report = FsckReport(findings=[Finding(
                F_SUPERBLOCK, str(exc), repairable=False,
                meta={"kind": "magic"},
            )])
            report.wall_ns = time.perf_counter_ns() - t0
            return report

        core = CoreState(device, geom)
        report = check_volume(core, core.read_inodes(), sb.root_ino, libfs)[0]
        passes = 1
        repairs: Dict[str, int] = {}
        # Keyed on *findings*, not cleanliness: advisory findings (warm pool
        # reservations) leave the report clean but are still reconciled.
        while repair and report.findings and passes < max_passes:
            # A replay mounts the volume, which reclaims every orphan it
            # finds (DESIGN §5): it waits for a pass with nothing else to do.
            others = [f for f in report.findings if f.cls != F_TX_TORN]
            todo = others if any(f.repairable for f in others) else report.findings
            with obs.span("fsck.repair", category="fsck"):
                applied = Repairer(device, geom, sb.root_ino).apply(todo)
            if not applied:
                break
            for cls, n in applied.items():
                repairs[cls] = repairs.get(cls, 0) + n
            report = check_volume(core, core.read_inodes(), sb.root_ino, libfs)[0]
            passes += 1

    report.passes = passes
    report.repairs = repairs
    report.wall_ns = time.perf_counter_ns() - t0
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
