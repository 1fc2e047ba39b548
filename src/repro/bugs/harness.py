"""Shared machinery for the bug demonstrations.

The paper reproduces each concurrency bug by inserting a ``sleep()`` at a
precise point and racing a second operation into the widened window.  Our
:func:`race` helper does the same deterministically: the *first* operation
parks at a named failpoint, the *second* operation is then started, given a
grace period to either complete (buggy interleaving) or block on the locks
the patch introduced, after which the first operation is released.  Both
outcomes (exceptions included) are returned for inspection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.core.config import ArckConfig
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


@dataclass
class BugOutcome:
    bug: str  # paper section, e.g. "4.2"
    title: str
    config_name: str
    manifested: bool
    detail: str

    def __str__(self) -> str:
        verdict = "MANIFESTED" if self.manifested else "not observed"
        return f"§{self.bug} {self.title} [{self.config_name}]: {verdict} — {self.detail}"


def make_fs(
    config: ArckConfig,
    size: int = 16 * 1024 * 1024,
    inode_count: int = 256,
    uid: int = 1000,
) -> Tuple[PMDevice, KernelController, LibFS]:
    """A fresh device + kernel + single-app LibFS under ``config``.

    Crash tracking stays on: the §4.2 demonstrations enumerate the
    device's reachable crash states.
    """
    vol = Volume.create(size, VolumeConfig(
        config=config, inode_count=inode_count, crash_tracking=True))
    fs = vol.session("app1", uid=uid).fs
    return vol.device, vol.kernel, fs


def _capture(fn: Callable[[], Any], out: List[Optional[BaseException]]) -> Callable[[], None]:
    def runner() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 — the exception IS the result
            out[0] = exc

    return runner


def race(
    first: Callable[[], Any],
    second: Callable[[], Any],
    parkpoint: str,
    *,
    predicate: Optional[Callable[[Any], bool]] = None,
    grace: float = 0.3,
    park_timeout: float = 2.0,
) -> Tuple[Optional[BaseException], Optional[BaseException]]:
    """Deterministically interleave ``second`` into ``first``'s window.

    Returns ``(first_exception, second_exception)`` (None = completed OK).
    """
    if predicate is None:
        point = failpoints.park(parkpoint, timeout=park_timeout)
    else:
        point = failpoints.park_when(parkpoint, predicate, timeout=park_timeout)
    exc1: List[Optional[BaseException]] = [None]
    exc2: List[Optional[BaseException]] = [None]
    t1 = threading.Thread(target=_capture(first, exc1), name="bug-first")
    t2 = threading.Thread(target=_capture(second, exc2), name="bug-second")
    try:
        t1.start()
        arrived = point.wait_arrived()
        t2.start()
        if arrived:
            # Give the second op time to complete (buggy interleaving) or to
            # block on the patch's locks (fixed behaviour).
            t2.join(grace)
        point.release()
        t1.join(10)
        t2.join(10)
        if t1.is_alive() or t2.is_alive():
            raise RuntimeError("race participants deadlocked")
        return exc1[0], exc2[0]
    finally:
        failpoints.remove(parkpoint)


def run_all(config: ArckConfig) -> List[BugOutcome]:
    """Run every Table 1 bug demonstration under ``config``."""
    # Imported here to avoid import cycles at package load.
    from repro.bugs import (
        bug_bucket,
        bug_cycle,
        bug_fence,
        bug_release,
        bug_rename,
        bug_state,
    )

    outcomes = []
    for mod in (bug_rename, bug_fence, bug_release, bug_state, bug_bucket, bug_cycle):
        outcomes.append(mod.demonstrate(config))
    return outcomes
