"""The host the benchmark runs on: calibration, the reference-host clock,
identity, page warming."""

from __future__ import annotations

import statistics
import subprocess
from bisect import bisect_right
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import List

#: ns per iteration of :func:`_spin` on the reference host.  Every time
#: the benchmark reports is scaled to a host on which the loop runs at
#: this speed (about what the 2-core sandbox does when it is quiet).
REF_SPIN_NS = 50.0
#: iterations of one speed sample: about 0.2 ms.
SAMPLE_ITERATIONS = 4000
#: a :class:`HostClock` takes a sample whenever this long has passed
#: since the last one (4 % of the timed phase goes to sampling).
SAMPLE_EVERY_NS = 5_000_000
#: a stretch's slowdown is the median of the samples this many either
#: side of it: host states last seconds, one sample's own jitter does not.
SMOOTH = 2


def _spin(iterations: int) -> int:
    """Duration in ns of the calibration loop: fixed pure-Python integer
    work, the same on every commit."""
    x = 0
    start = perf_counter_ns()
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter_ns() - start


def calibrate() -> float:
    """ns per iteration of the calibration loop (best of five runs): what
    this interpreter on this host costs, for cross-host comparison."""
    return min(_spin(200_000) for _ in range(5)) / 200_000


def slowdown(samples: int = 5) -> float:
    """How much slower than the reference host this one is right now
    (median of ``samples`` speed samples, about 1 ms)."""
    return statistics.median(
        _spin(SAMPLE_ITERATIONS) for _ in range(samples)
    ) / SAMPLE_ITERATIONS / REF_SPIN_NS


class RefTimer:
    """``with RefTimer() as t: step()`` leaves the step's length in
    reference-host seconds in ``t.seconds``: wall-clock over the mean of
    the slowdown just before and just after (for a step the harness
    cannot sample inside of, such as a set-up)."""

    def __enter__(self) -> "RefTimer":
        self._before = slowdown()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = perf_counter() - self._start
        self.seconds = wall / ((self._before + slowdown()) / 2)


class HostClock:
    """Maps wall-clock stamps to time on the reference host.

    The shared sandbox runs the same code 10-60 % slower for seconds to
    minutes at a time (a neighbour on the sibling hyperthread), the
    calibration loop and the program alike: over forty 2 s rounds of
    ``meta-session`` the round's median latency followed the round's
    median loop speed with a correlation of 0.9.  So the closed loop
    calls :meth:`tick` between ops, a speed sample is taken whenever one is
    due, and a stretch of wall-clock time counts for its length divided
    by the slowdown measured around it.  The samples themselves take no
    reference time.  Nothing is discarded: every op is in every metric,
    at what it would have cost on the reference host.
    """

    def __init__(self) -> None:
        self.at: List[int] = []    # when each sample started
        self.took: List[int] = []  # how long it ran
        self._due = 0
        self._ref: List[float] = []   # reference time at each sample's end
        self._slow: List[float] = []  # slowdown of the stretch after it

    def tick(self, now: int) -> None:
        """Called between ops: takes a sample if one is due."""
        if now >= self._due:
            took = _spin(SAMPLE_ITERATIONS)
            self.at.append(now)
            self.took.append(took)
            self._due = now + took + SAMPLE_EVERY_NS

    def seal(self) -> None:
        """After the last tick: builds the map."""
        speeds = [took / SAMPLE_ITERATIONS for took in self.took]
        self._slow = [
            statistics.median(speeds[max(0, j - SMOOTH + 1):j + SMOOTH + 1])
            / REF_SPIN_NS for j in range(len(speeds))]
        self._integrate()

    def _integrate(self) -> None:
        self._ref = [0.0]
        for j in range(1, len(self.at)):
            stretch = self.at[j] - self.at[j - 1] - self.took[j - 1]
            self._ref.append(self._ref[-1] + stretch / self._slow[j - 1])

    def ref_ns(self, stamp: int) -> float:
        """Reference-host time at wall-clock ``stamp`` (ns since the
        first sample ended)."""
        j = max(0, bisect_right(self.at, stamp) - 1)
        into = max(0, stamp - self.at[j] - self.took[j])
        return self._ref[j] + into / self._slow[j]

    def ref_us(self, start: int, end: int) -> float:
        """Reference-host µs between two wall-clock stamps."""
        return (self.ref_ns(end) - self.ref_ns(start)) / 1e3

    def slowdown(self) -> float:
        """Median slowdown over the clock's life."""
        return statistics.median(self._slow)


def warm_memory(nbytes: int) -> None:
    """Touch and free ``nbytes`` just before a timed, allocation-heavy step.

    The sandbox VM hands pages a guest has freed back to its host within
    seconds, and the next first touch of such a page costs several
    microseconds of host work: the same 256 MiB set-up or recovery read
    0.4 s or 1.5 s depending on which pages the kernel happened to hand
    out.  Touching the step's footprint first puts host-backed pages on
    the free lists the step is served from; the program is not changed.
    """
    chunk = 64 << 20
    held = [bytearray(chunk) for _ in range(-(-nbytes // chunk))]
    del held


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
