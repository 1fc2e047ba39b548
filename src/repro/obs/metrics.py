"""Metrics primitives: counters, gauges, fixed-bucket latency histograms.

The registry is the single sink for every number the instrumentation layer
produces: kernel crossings, persistence-primitive counts, lock wait time,
syscall latency distributions.  It deliberately mirrors the shape (not the
wire format) of a Prometheus registry:

* metrics are identified by ``(name, labels)`` — e.g.
  ``kernel.crossings{reason=mmap}`` — and created lazily on first use;
* counters only go up, gauges are set, histograms observe values into
  *fixed* buckets so percentiles are O(buckets) and histograms from
  different threads/runs can be merged exactly;
* ``snapshot()`` renders everything into plain dicts (JSON-ready), with
  labeled counters additionally aggregated under their base name, so
  ``kernel.crossings`` is always the sum over every reason.

Everything here is standard library only and thread-safe; the *cost* story
(no-op when observability is disabled) lives at the call sites, which check
``repro.obs.enabled`` before touching the registry at all.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (nanoseconds): ~250 ns to 100 ms, roughly
#: geometric.  Wide enough for a Python-simulated syscall; fine enough that
#: p50/p95/p99 interpolation stays meaningful.
LATENCY_BUCKETS_NS: Tuple[int, ...] = (
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
    10_000_000, 25_000_000, 50_000_000, 100_000_000,
)


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_name(name: str, labels: LabelsKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer, sharded per thread.

    ``inc`` is the instrumentation hot path (it runs on every counted
    syscall), so it touches only a thread-private cell — no lock and no
    shared-cacheline RMW.  Each cell is written by exactly one thread;
    ``value`` folds the cells on read.  The fold is monotonic per shard,
    so a concurrent read can at worst miss an in-flight increment — the
    same guarantee the old single-lock counter gave an external reader.
    """

    __slots__ = ("name", "labels", "_local", "_cells", "_register")

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self._local = threading.local()
        self._cells: List[List[int]] = []
        self._register = threading.Lock()

    def _cell(self) -> List[int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = [0]
            self._local.cell = cell
            with self._register:
                self._cells.append(cell)
        return cell

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._cell()[0] += n

    @property
    def value(self) -> int:
        with self._register:
            cells = list(self._cells)
        return sum(c[0] for c in cells)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = v

    def add(self, v: float) -> None:
        with self._lock:
            self.value += v


class Histogram:
    """Fixed-bucket histogram with exact merge and interpolated percentiles.

    ``bounds`` are the inclusive upper edges of each bucket; one overflow
    bucket catches everything above the last edge.  ``percentile`` walks the
    cumulative counts and linearly interpolates inside the target bucket
    (clamped by the observed min/max, so single-observation histograms
    report that observation for every percentile).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_NS,
                 labels: LabelsKey = ()):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def _bucket_index(self, v: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, v: float) -> None:
        idx = self._bucket_index(v)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.total += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 < q <= 100), bucket-interpolated.

        Edge cases are exact, not interpolated: an empty histogram reports
        0.0, and when every observation is the same value (one sample, or a
        constant stream) that value comes back for every percentile — even
        when it is 0.0 or lands in the overflow bucket, where the previous
        ``min or 0.0`` / ``max or bounds[-1]`` falsy checks went wrong.
        """
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100]")
        with self._lock:
            count = self.count
            counts = list(self.counts)
            vmin, vmax = self.min, self.max
        if count == 0:
            return 0.0
        if vmin == vmax:
            return float(vmin)
        target = q / 100.0 * count
        cum = 0
        for idx, n in enumerate(counts):
            if n == 0:
                continue
            prev_cum = cum
            cum += n
            if cum >= target:
                # Bucket edges clamped to the observed range; the overflow
                # bucket's upper edge is the observed max.
                lower = self.bounds[idx - 1] if idx > 0 else vmin
                upper = (self.bounds[idx] if idx < len(self.bounds) else vmax)
                lower = max(lower, vmin)
                upper = min(upper, vmax)
                if upper <= lower:
                    return float(upper)
                frac = min(1.0, max(0.0, (target - prev_cum) / n))
                # Clamp: float interpolation at frac≈1.0 can land one ulp
                # above `upper` (lower + (upper-lower)*1.0 need not round
                # back to exactly `upper`), escaping the observed range.
                return float(min(upper, lower + (upper - lower) * frac))
        return float(vmax)  # pragma: no cover - defensive

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bounds) into this one, exactly."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge {other.name}: bounds differ from {self.name}"
            )
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.total
            omin, omax = other.min, other.max
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.total += total
            if omin is not None and (self.min is None or omin < self.min):
                self.min = omin
            if omax is not None and (self.max is None or omax > self.max):
                self.max = omax

    def bucket_counts(self) -> Tuple[Tuple[float, ...], List[int], int, float]:
        """A consistent ``(bounds, counts, count, sum)`` snapshot — the raw
        material for Prometheus's cumulative ``_bucket{le=...}`` series."""
        with self._lock:
            return self.bounds, list(self.counts), self.count, self.total

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total = self.count, self.total
            vmin, vmax = self.min, self.max
        if count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
        return {
            "count": count,
            "sum": total,
            "min": float(vmin),
            "max": float(vmax),
            "mean": total / count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Process-wide named metrics, created lazily, snapshot as plain dicts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    # -- factories (get-or-create) ----------------------------------------- #

    def counter(self, name: str, /, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        c = self._counters.get(key)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(key, Counter(name, key[1]))
        return c

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        g = self._gauges.get(key)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(key, Gauge(name, key[1]))
        return g

    def histogram(self, name: str, /, bounds: Sequence[float] = LATENCY_BUCKETS_NS,
                  **labels: object) -> Histogram:
        key = (name, _labels_key(labels))
        h = self._histograms.get(key)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(key, Histogram(name, bounds, key[1]))
        return h

    # -- views -------------------------------------------------------------- #

    def counter_total(self, name: str, /, **labels: object) -> int:
        """Sum of a counter over all of its label sets — those carrying
        every one of ``labels``, when given (0 if never created)."""
        want = set(_labels_key(labels))
        return sum(c.value for c in self.counters()
                   if c.name == name and want.issubset(c.labels))

    def counters(self) -> List[Counter]:
        """A consistent list of every live counter (for exporters)."""
        with self._lock:
            return list(self._counters.values())

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return list(self._gauges.values())

    def histograms(self) -> List[Histogram]:
        with self._lock:
            return list(self._histograms.values())

    def snapshot(self) -> Dict[str, Dict]:
        """Everything, JSON-ready.  Labeled counters also roll up into their
        base name so ``counters["kernel.crossings"]`` is the total."""
        counters: Dict[str, int] = {}
        with self._lock:
            items = list(self._counters.items())
            gauges = list(self._gauges.items())
            hists = list(self._histograms.items())
        totals: Dict[str, int] = {}
        for (name, labels), c in items:
            counters[render_name(name, labels)] = c.value
            totals[name] = totals.get(name, 0) + c.value
        # Roll labeled children up into the base name (an unlabeled counter
        # of the same name is one more child of the rollup).
        for name, total in totals.items():
            counters[name] = total
        hist_out: Dict[str, Dict[str, float]] = {}
        by_base: Dict[str, List[Histogram]] = {}
        for (name, labels), h in hists:
            hist_out[render_name(name, labels)] = h.summary()
            by_base.setdefault(name, []).append(h)
        # Labeled histograms roll up too: fixed buckets merge exactly, so
        # the base-name summary is identical to observing everything into
        # one histogram (skipped if label sets mix bucket bounds).
        for name, group in by_base.items():
            if len(group) == 1 and not group[0].labels:
                continue
            bounds = group[0].bounds
            if any(h.bounds != bounds for h in group):
                continue
            agg = Histogram(name, bounds)
            for h in group:
                agg.merge(h)
            hist_out[name] = agg.summary()
        return {
            "counters": counters,
            "gauges": {render_name(n, l): g.value for (n, l), g in gauges},
            "histograms": hist_out,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def format_snapshot(snap: Dict[str, Dict], title: str = "") -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`."""
    out: List[str] = []
    if title:
        out.append(f"== metrics: {title} ==")
    counters = snap.get("counters", {})
    if counters:
        out.append("counters:")
        width = max(len(k) for k in counters)
        for k in sorted(counters):
            out.append(f"  {k:<{width}}  {counters[k]}")
    gauges = snap.get("gauges", {})
    if gauges:
        out.append("gauges:")
        width = max(len(k) for k in gauges)
        for k in sorted(gauges):
            out.append(f"  {k:<{width}}  {gauges[k]:.3f}")
    hists = snap.get("histograms", {})
    if hists:
        out.append("histograms (ns):")
        for k in sorted(hists):
            s = hists[k]
            out.append(
                f"  {k}  count={s['count']} p50={s['p50']:.0f} "
                f"p95={s['p95']:.0f} p99={s['p99']:.0f} max={s['max']:.0f}"
            )
    return "\n".join(out)
