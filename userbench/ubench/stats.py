"""Order statistics and span arithmetic shared by the benchmark.

Pure functions only: the workloads, the steadiness command and the
tests all import from here.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie strictly beyond a tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of ascending data: ``(value, rank)``.

    ``rank`` is 1-based, so ``len(sorted_values) - rank`` samples lie
    beyond the returned value.
    """
    n = len(sorted_values)
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return float(sorted_values[rank - 1]), rank


def tail(values: Iterable[float]) -> Optional[dict]:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples
    beyond it, as ``{"value", "pct", "beyond", "samples"}``.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than 20 samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n == 0:
            break
        value, rank = nearest_rank(ordered, pct)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": value, "pct": pct, "beyond": beyond, "samples": n}
    return None


def quartile_spread(values: Sequence[float]) -> dict:
    """Median, quartiles and the interquartile distance as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    values = [float(v) for v in values]
    med = median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    span: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent; overlapping children (threads,
    coroutines) count once.
    """
    start, end = span
    clipped = [
        (max(start, c0), min(end, c1)) for c0, c1 in children
    ]
    return (end - start) - union_length(clipped)


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per layer over one process's span records.

    Each record has ``id``, ``parent`` (an ``id`` or ``None``),
    ``layer``, ``t0`` and ``t1`` (seconds).  A span's children are the
    records naming it as parent, whatever their layer.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for rec in spans:
        if rec.get("parent") is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["t0"], rec["t1"])
            )
    out: Dict[str, float] = {}
    for rec in spans:
        own = self_time((rec["t0"], rec["t1"]), children.get(rec["id"], ()))
        out[rec["layer"]] = out.get(rec["layer"], 0.0) + own
    return out


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs`` (0 for < 2 points)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
