"""Crash-state exploration harness.

``CrashSim`` wraps the pattern every crash-consistency test in this repo
follows:

1. run some file-system operation(s) against a :class:`PMDevice`;
2. enumerate (or sample) every crash image reachable at that moment —
   each un-fenced dirty cache line independently persists any of the
   versions it has held since its durability floor;
3. "reboot" each image into a fresh device and hand it to a recovery /
   checker callback.

The §4.2 bug is demonstrated by finding at least one crash image in which a
dentry's commit marker persisted while the dentry body or inode record did
not; the ArckFS+ fence patch is validated by proving no such image exists.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.pm.device import PMDevice


class CrashSim:
    """Enumerate reachable crash states of a device and check each one."""

    def __init__(self, device: PMDevice, *, limit: int = 4096):
        self.device = device
        self.limit = limit

    def images(self, sample: Optional[int] = None, seed: int = 0) -> Iterator[bytes]:
        """All reachable crash images (or ``sample`` random ones)."""
        if sample is not None:
            return self.device.sample_crash_images(sample, seed=seed)
        return self.device.enumerate_crash_images(limit=self.limit)

    def check_all(
        self,
        checker: Callable[[PMDevice], object],
        *,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> List[object]:
        """Reboot every crash image and run ``checker`` on it.

        ``checker`` receives a fresh :class:`PMDevice` booted from the image
        and may raise to fail, or return a value that is collected.
        """
        results = []
        for image in self.images(sample=sample, seed=seed):
            rebooted = PMDevice.from_image(image)
            results.append(checker(rebooted))
        return results

    def find_violation(
        self,
        checker: Callable[[PMDevice], Optional[str]],
        *,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> Optional[Tuple[bytes, str]]:
        """Return the first (image, reason) for which ``checker`` reports a
        violation (a non-None string), or None if every crash state is clean.
        """
        for image in self.images(sample=sample, seed=seed):
            rebooted = PMDevice.from_image(image)
            reason = checker(rebooted)
            if reason is not None:
                return image, reason
        return None

    def find_fsck_violation(
        self,
        classes: Optional[Iterable[str]] = None,
        *,
        repair: bool = False,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> Optional[Tuple[bytes, str]]:
        """Convenience: :meth:`find_violation` with the whole-volume fsck as
        the checker — "every reachable crash state is fsck-clean".

        ``classes`` restricts which finding classes count (e.g.
        ``repro.fsck.TORN_CLASSES``); ``repair=True`` instead asserts every
        state is *repairable*.  Imported lazily to keep ``repro.pm`` free of
        upward dependencies.
        """
        from repro.fsck import fsck_checker

        cls = frozenset(classes) if classes is not None else None
        checker = fsck_checker(classes=cls, repair=repair)
        return self.find_violation(checker, sample=sample, seed=seed)

    def state_count(self) -> int:
        """Number of reachable crash states right now."""
        return math.prod(self.device.line_choices().values())
