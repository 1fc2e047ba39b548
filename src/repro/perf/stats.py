"""Result aggregation and table formatting for the benchmark harness."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def relative(numerator: Dict[int, float], denominator: Dict[int, float]) -> Dict[int, float]:
    """Pointwise ratio of two thread->throughput curves (as percentages)."""
    return {
        k: (numerator[k] / denominator[k] * 100.0 if denominator.get(k) else 0.0)
        for k in numerator
        if k in denominator
    }


def format_table(
    title: str,
    col_header: str,
    columns: Sequence,
    rows: Dict[str, Dict],
    fmt: str = "{:>10.3f}",
    unit: str = "",
) -> str:
    """Render a rows×columns table the way the paper prints its results."""
    out: List[str] = []
    out.append(f"== {title}{' (' + unit + ')' if unit else ''} ==")
    # Column width follows the fmt string (probe it with a sample value) so
    # header, data cells and the missing-value placeholder all line up even
    # for non-default formats.
    col_width = max(len(fmt.format(0)) + 1, 11)
    placeholder = "--".rjust(col_width)
    header = f"{col_header:<12}" + "".join(f"{str(c):>{col_width}}" for c in columns)
    out.append(header)
    out.append("-" * len(header))
    for name, series in rows.items():
        cells = []
        for c in columns:
            v = series.get(c)
            cells.append(fmt.format(v) if v is not None else placeholder)
        out.append(f"{name:<12}" + "".join(f"{cell:>{col_width}}" for cell in cells))
    return "\n".join(out)
