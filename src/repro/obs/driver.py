"""Run a functional workload under full observation.

This is the engine behind ``python -m repro trace`` and ``python -m repro
metrics``: build a fresh ArckFS(+) stack, prepare the workload fileset
*outside* the measured window, then run the per-thread op loop with
observability enabled and publish every layer's stats delta into the
metrics registry (:func:`layer_snapshot`, :func:`publish_layer_deltas`).

Workload specs:

* ``fxmark:<NAME>`` — any Table 3 metadata workload (``MWCL``, ``MRPM``,
  ...) or data workload (``DRBL``, ``DWOL``, ...);
* ``filebench:<personality>[-shared|-private]`` — ``varmail`` or
  ``webproxy`` via the functional flowop engine (default ``-shared``, the
  paper's new framework).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS, ARCKFS_PLUS, ArckConfig
from repro.errors import InvalidArgument
from repro.libfs.libfs import LibFS

CONFIGS: Dict[str, ArckConfig] = {
    "arckfs": ARCKFS,
    "arckfs+": ARCKFS_PLUS,
}


@dataclass
class WorkloadDriver:
    """A resolved workload: prepare once, then run (tid, i) op steps."""

    name: str
    prepare: Callable[[LibFS, int], None]
    step: Callable[[LibFS, int, int], None]


def resolve(spec: str) -> WorkloadDriver:
    """Map a ``family:name`` spec to a functional driver."""
    family, sep, name = spec.partition(":")
    if not sep or not name:
        raise InvalidArgument(
            f"workload spec {spec!r} is not of the form "
            "'fxmark:<NAME>' or 'filebench:<personality>[-shared|-private]'"
        )
    if family == "fxmark":
        from repro.workloads.fxmark import DATA_WORKLOADS, FXMARK

        wl = FXMARK.get(name.upper()) or DATA_WORKLOADS.get(name.upper())
        if wl is None:
            known = sorted(FXMARK) + sorted(DATA_WORKLOADS)
            raise InvalidArgument(
                f"unknown fxmark workload {name!r}; known: {', '.join(known)}"
            )
        return WorkloadDriver(f"fxmark:{wl.name}", wl.prepare, wl.functional)
    if family == "filebench":
        from repro.workloads.filebench import PERSONALITIES, FilebenchEngine

        pname, _, variant = name.partition("-")
        personality = PERSONALITIES.get(pname)
        if personality is None or variant not in ("", "shared", "private"):
            raise InvalidArgument(
                f"unknown filebench spec {name!r}; known: "
                + ", ".join(f"{p}[-shared|-private]" for p in sorted(PERSONALITIES))
            )
        shared = variant != "private"
        engine_box: List[FilebenchEngine] = []

        def prepare(fs: LibFS, nthreads: int) -> None:
            engine = FilebenchEngine(fs, personality, nthreads=nthreads,
                                     shared=shared)
            engine.prepare()
            engine_box.append(engine)

        def step(fs: LibFS, tid: int, i: int) -> None:
            engine_box[0].run_loop(tid, i)

        suffix = "shared" if shared else "private"
        return WorkloadDriver(f"filebench:{pname}-{suffix}", prepare, step)
    raise InvalidArgument(
        f"unknown workload family {family!r}; known: fxmark, filebench"
    )


@dataclass
class ObservedRun:
    """The result of one observed functional run."""

    spec: str
    fs: str
    threads: int
    ops: int
    wall_ns: int
    metrics: Dict[str, Dict]

    @property
    def ops_per_sec(self) -> float:
        return self.ops / (self.wall_ns / 1e9) if self.wall_ns else 0.0


def run_observed(
    spec: str,
    *,
    threads: int = 1,
    ops_per_thread: int = 64,
    fs: str = "arckfs+",
    trace: bool = False,
    profile: bool = False,
    config: Optional[ArckConfig] = None,
) -> ObservedRun:
    """Build a stack, run ``spec`` observed, return metrics (and fill the
    global tracer when ``trace`` / the global profiler when ``profile``).
    The observability switches are left as the run found them."""
    if config is None:
        config = CONFIGS.get(fs)
        if config is None:
            raise InvalidArgument(
                f"unknown fs {fs!r}; known: {', '.join(sorted(CONFIGS))}"
            )
    driver = resolve(spec)
    total_ops = threads * ops_per_thread
    vol = Volume.create(
        64 * 1024 * 1024 + total_ops * 8192,
        VolumeConfig(config=config, name="obs",
                     inode_count=max(4096, 2 * total_ops + 512)),
    )
    libfs = vol.session("obs", uid=0).fs

    driver.prepare(libfs, threads)

    before = layer_snapshot(vol, libfs)

    found = obs.enabled, obs.tracer.enabled, obs.profiler.enabled
    obs.reset()
    obs.enable(trace=trace, profile=profile)
    labels = {"app_id": libfs.app_id, "volume": vol.name}
    start = time.perf_counter_ns()
    try:
        _run_threads(driver, libfs, threads, ops_per_thread, labels)
    finally:
        wall_ns = time.perf_counter_ns() - start
        obs.enabled, obs.tracer.enabled, obs.profiler.enabled = found

    publish_layer_deltas(vol, libfs, before)
    # Make sure the headline counters exist even when a run never touched
    # them (e.g. a pure-LibFS workload has zero kernel crossings — that
    # zero IS the paper's architectural claim, so print it).
    obs.metrics.counter("kernel.crossings")
    obs.metrics.counter("lock.wait_ns")
    obs.metrics.gauge("run.threads").set(threads)
    obs.metrics.gauge("run.ops").set(total_ops)
    obs.metrics.gauge("run.wall_ns").set(wall_ns)
    if wall_ns:
        obs.metrics.gauge("run.ops_per_sec").set(total_ops / (wall_ns / 1e9))

    return ObservedRun(
        spec=driver.name,
        fs=config.name,
        threads=threads,
        ops=total_ops,
        wall_ns=wall_ns,
        metrics=obs.metrics.snapshot(),
    )


def _layer_records(vol: Volume, libfs: LibFS) -> List[Tuple[str, object, Dict]]:
    """``(prefix, stats record, labels)`` for every layer of ``vol``: the
    one place a layer's counters reach the registry from.  A striped
    device's members are published one by one, labelled ``device=`` (the
    registry's rollup is the device total); a flat one's shares the
    device's record."""
    kernel, device = vol.kernel, vol.device
    labels = {"volume": vol.name}
    if device.devices > 1:
        pm = [("pm", m.stats, {**labels, "device": m.index})
              for m in device.members]
    else:
        pm = [("pm", device.stats, labels)]
    return pm + [
        ("alloc", kernel.alloc.stats, labels),
        ("kernel", kernel.stats, labels),
        ("readcache", kernel.readcache.stats, labels),
        ("verify", kernel.verifier.pstats, labels),
        ("libfs", libfs.stats, labels),
    ]


def layer_snapshot(vol: Volume, libfs: LibFS) -> List[object]:
    """A copy of every layer record of ``vol`` and ``libfs``, now."""
    return [replace(rec) for _prefix, rec, _labels in _layer_records(vol, libfs)]


def publish_layer_deltas(vol: Volume, libfs: LibFS, before: List[object]) -> None:
    """Publish every layer record's change since :func:`layer_snapshot`
    gave ``before``, as ``<prefix>.<field>``."""
    for (prefix, rec, labels), then in zip(_layer_records(vol, libfs), before):
        obs.publish_stats(prefix, obs.stats_diff(rec, then), **labels)


def _run_threads(driver: WorkloadDriver, libfs: LibFS, threads: int,
                 ops_per_thread: int, labels: Dict[str, object]) -> None:
    if threads == 1:
        with obs.scoped_context(**labels):
            for i in range(ops_per_thread):
                driver.step(libfs, 0, i)
        return
    errors: List[BaseException] = []

    def worker(tid: int) -> None:
        try:
            with obs.scoped_context(**labels):
                for i in range(ops_per_thread):
                    driver.step(libfs, tid, i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if errors:
        raise errors[0]
