"""Pure helpers: percentiles, span self time, tax ladder.

Nothing here touches ``repro``; ``tests/test_stats.py`` covers all of it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: A recorded span: ``(name, op_id, parent, start_ns, end_ns)``; ``parent``
#: is the index of the enclosing span in the same list, -1 for a root.
Span = Tuple[str, int, int, int, int]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent and overlapping children are
    counted once (the union of their intervals).
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _name, _op, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, _op, _parent, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


#: One rung's measured ops: ``op_id -> (op class, latency in µs)``.
RungLatencies = Dict[int, Tuple[str, float]]


def class_p50s(latencies: RungLatencies, ids=None) -> Dict[str, float]:
    """Median latency per op class, over the ops in ``ids`` (default: all
    of them)."""
    by_class: Dict[str, List[float]] = {}
    for op_id, (cls, us) in latencies.items():
        if ids is None or op_id in ids:
            by_class.setdefault(cls, []).append(us)
    return {cls: percentile(v, 50) for cls, v in by_class.items()}


def ladder_taxes(rungs: Sequence[Tuple[str, RungLatencies]]
                 ) -> Dict[str, float]:
    """Adjacent-rung p50 differences per op class.

    ``rungs`` is ordered bottom to top, each ``(name, latencies of the ops
    it replayed)``; a rung may replay fewer ops than the rung below.  The
    first rung is the base and gets no tax; every later rung ``r`` yields
    ``"<r>.tax_us.<class>" = p50[r] - p50[previous]``, each median over the
    ops both rungs replayed.  When every rung replays the same ops the
    taxes telescope: the base rung's p50 plus every tax is the top rung's
    p50.
    """
    taxes: Dict[str, float] = {}
    for (_b, lat_below), (name, lat) in zip(rungs, rungs[1:]):
        both = lat_below.keys() & lat.keys()
        below, above = class_p50s(lat_below, both), class_p50s(lat, both)
        for cls in above:
            if cls in below:
                taxes[f"{name}.tax_us.{cls}"] = above[cls] - below[cls]
    return taxes
