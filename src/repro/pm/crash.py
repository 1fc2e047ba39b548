"""The crash explorer: every crash claim in this repo comes from
:func:`explore`, which judges the crash images reachable just before each
fence a program issues and at its return.

A judge gets each image as a raw device, not a mount: the §4.2 judge is
raw-image fsck, and mount's recovery would tombstone the torn dentry it
looks for.  A namespace judge mounts the device itself.
"""

from __future__ import annotations

import linecache
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.pm.device import PMDevice

#: The modules whose frames a fence's site skips: the device, its mappings
#: and this one.  The allocator issues its own fences and stays a site.
_DEVICE_MODULES = (__name__, "repro.pm.device", "repro.pm.mapping")


@dataclass
class Point:
    """Just before fence ``fence`` (1-based; None: at return), issued at
    method ``site``, source ``line``; ``states`` crash states reachable
    there, and the judge's non-None ``verdicts``."""

    fence: Optional[int]
    site: str
    line: str
    states: int
    verdicts: List[object] = field(default_factory=list)


def crash_images(device: PMDevice, budget: int, seed: int = 0) -> Iterator[bytes]:
    """The crash images of ``device`` judged at one point: every one, in
    enumeration order, when there are at most ``budget``; else ``budget - 2``
    drawn with ``seed``, then the durable floor, then every dirty line at
    its newest version."""
    choices = device.line_choices()
    if math.prod(choices.values()) <= budget:
        yield from device.enumerate_crash_images(limit=budget)
        return
    yield from device.sample_crash_images(budget - 2, seed=seed)
    yield device.durable_image()
    yield device.crash_image({line: n - 1 for line, n in choices.items()})


def _fence_site() -> Tuple[str, str]:
    """The method that issued the fence being taken (``Class.method``) and
    its source line: the innermost frame outside ``_DEVICE_MODULES``."""
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") in _DEVICE_MODULES:
        frame = frame.f_back
    code, owner = frame.f_code, frame.f_locals.get("self")
    site = code.co_name if owner is None else f"{type(owner).__name__}.{code.co_name}"
    return site, linecache.getline(code.co_filename, frame.f_lineno).strip()


def explore(
    device: PMDevice,
    program: Optional[Callable[[], object]],
    judge: Callable[[PMDevice, Point], Optional[object]],
    *,
    budget: int,
    seed: int = 0,
    skip: int = 0,
    first: bool = False,
) -> List[Point]:
    """Run ``program`` on ``device`` and judge every crash image reachable
    just before each fence it issues and at its return; ``program=None``
    judges the device as it stands (one point).

    Fence ``k`` draws its sample with ``seed + k``, the return point with
    ``seed``.  ``skip=k`` does not take fence ``k`` and judges only the
    fences after it.  ``first=True`` stops judging at the first verdict
    (the program still runs to its end, so every fence is recorded).
    ``judge(device, point)`` gets each image booted untracked and returns
    None or a verdict.  Returns one :class:`Point` per point, in order.
    """
    points: List[Point] = []

    def visit(point: Point, point_seed: int) -> None:
        if first and any(p.verdicts for p in points):
            return
        for image in crash_images(device, budget, point_seed):
            verdict = judge(PMDevice.from_image(image, crash_tracking=False), point)
            if verdict is not None:
                point.verdicts.append(verdict)
                if first:
                    return

    def states() -> int:
        return math.prod(device.line_choices().values())

    if program is not None:
        real = device.sfence

        def sfence() -> None:
            point = Point(len(points) + 1, *_fence_site(), states())
            points.append(point)
            if point.fence == skip:
                return
            if point.fence > skip:
                visit(point, seed + point.fence)
            real()

        device.sfence = sfence
        try:
            program()
        finally:
            del device.sfence
    point = Point(None, "", "", states())
    points.append(point)
    visit(point, seed)
    return points
