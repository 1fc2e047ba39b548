"""The two bottom rungs: fixed primitives on ``pm`` and ``core``.

Below LibFS there are no paths to replay a stream against, so these rungs
time the primitives the data and metadata paths are built from, on a
volume built exactly as the workload's (same size, tracking setting and
striping) with payloads from the seeded pool.  The volume is discarded
afterwards: the ``pm`` probe writes over unallocated pages at the tail of
the data area and the ``core`` probe appends dentries for no real child.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List

from repro.api import Volume
from repro.core.corestate import TailCursor
from repro.pm.layout import ITYPE_FILE

from .host import HostClock
from .spans import Recorder
from .stats import percentile
from .streams import KIB, MIB, PAGE

_LINE = 64


def _p50_us(rec: Recorder, name: str, n: int, fn: Callable[[int], None]) -> float:
    """Median reference-host µs of ``fn(i)`` over ``n`` calls, one root
    span per call."""
    clock = HostClock()
    stamps = []
    for i in range(n):
        clock.tick(perf_counter_ns())
        idx = rec.open_op(name, i)
        start = perf_counter_ns()
        fn(i)
        end = perf_counter_ns()
        rec.close(idx, start, end)
        stamps.append((start, end))
    clock.seal()
    return percentile([clock.ref_us(*pair) for pair in stamps], 50)


def pm_probe(volume: Volume, pool: bytes, rec: Recorder) -> Dict[str, float]:
    """Direct device calls at the workload's tracking setting."""
    dev = volume.device
    base = dev.size - 2 * MIB  # unallocated tail of the (last) device
    line, page, extent = pool[:_LINE], pool[:PAGE], pool[:MIB]

    def store64_persist(i: int) -> None:
        addr = base + (i % 4096) * _LINE
        dev.store(addr, line)
        dev.persist(addr, _LINE)

    def ntstore4k(i: int) -> None:
        dev.ntstore(base + (i % 256) * PAGE, page)
        dev.sfence()

    def ntstore1m(i: int) -> None:
        dev.ntstore(base, extent)
        dev.sfence()

    return {
        "pm.store64_persist_us": _p50_us(rec, "pm.store64_persist", 1000,
                                         store64_persist),
        "pm.ntstore4k_us": _p50_us(rec, "pm.ntstore4k", 400, ntstore4k),
        "pm.ntstore1m_us": _p50_us(rec, "pm.ntstore1m", 6, ntstore1m),
        "pm.load4k_us": _p50_us(
            rec, "pm.load4k", 1000,
            lambda i: dev.load(base + (i % 256) * PAGE, PAGE)),
    }


def _consecutive_run(alloc, npages: int) -> List[int]:
    """``npages`` consecutively numbered pages from the allocator (what
    ``write_extent_data`` requires of its caller)."""
    for _attempt in range(4):
        pages = sorted(alloc.alloc_many(2 * npages, zero=False))
        for lo in range(len(pages) - npages + 1):
            if pages[lo + npages - 1] - pages[lo] == npages - 1:
                return pages[lo:lo + npages]
    raise RuntimeError(f"no run of {npages} consecutive free pages")


def core_probe(volume: Volume, pool: bytes, rec: Recorder, dir_ino: int,
               child_ino: int) -> Dict[str, float]:
    """``CoreState`` and allocator calls through ``volume.kernel``."""
    kernel = volume.kernel
    core, alloc = kernel.core, kernel.alloc
    npages = MIB // PAGE
    pages = _consecutive_run(alloc, npages)
    page, extent = pool[KIB:KIB + PAGE], pool[KIB:KIB + MIB]

    def write4k(i: int) -> None:
        core.write_extent_data(pages[i % npages], 0, page)
        core.mem.sfence()

    def write1m(i: int) -> None:
        core.write_extent_data(pages[0], 0, extent)
        core.mem.sfence()

    dir_rec = core.read_inode(dir_ino)
    cursor = (core.scan_tail(dir_rec.tails[0])[0] if dir_rec.tails[0]
              else TailCursor())
    fence = kernel.config.fence_before_marker

    def append_dentry(i: int) -> None:
        core.append_dentry(dir_ino, dir_rec, 0, cursor, b"probe%06d" % i,
                           child_ino, 1, ITYPE_FILE, 1, alloc,
                           fence_before_marker=fence)

    held: List[int] = []
    out = {
        "core.append_dentry_us": _p50_us(rec, "core.append_dentry", 400,
                                         append_dentry),
        "core.write_extent4k_us": _p50_us(rec, "core.write_extent4k", 400,
                                          write4k),
        "core.write_extent1m_us": _p50_us(rec, "core.write_extent1m", 6,
                                          write1m),
        "core.read4k_us": _p50_us(
            rec, "core.read4k", 1000,
            lambda i: core.read_file_data(pages, MIB, (i % npages) * PAGE,
                                          PAGE)),
        "core.read1m_us": _p50_us(
            rec, "core.read1m", 12,
            lambda i: core.read_file_data(pages, MIB, 0, MIB)),
        "pm.alloc.page_us": _p50_us(
            rec, "pm.alloc.page", 400,
            lambda i: held.append(alloc.alloc(zero=False))),
    }
    for page_no in held:
        alloc.free(page_no)
    return out
