"""Closest pair of points in the plane as a DCSpec.

The classic ``T(n) = 2·T(n/2) + Θ(n)`` geometry algorithm: split by
x-coordinate, recurse, then scan the strip around the dividing line.
Demonstrates the framework on problems whose divide step carries real
geometric meaning (not just index arithmetic).

Problems are ``(n, 2)`` arrays of points pre-sorted by x; solutions are
the minimum pairwise distance within the range.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.spec import DCSpec
from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def brute_force_closest(points: np.ndarray) -> float:
    """Θ(n²) reference (and base case for small ranges)."""
    import numpy as np

    if points.shape[0] < 2:
        return float("inf")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist[np.diag_indices(points.shape[0])] = np.inf
    return float(dist.min())


def closest_pair(points: np.ndarray) -> float:
    """Direct D&C implementation (the sequential baseline)."""
    import numpy as np

    pts = _validated(points)
    order = np.argsort(pts[:, 0], kind="stable")
    return _closest(pts[order])


def _closest(pts: np.ndarray) -> float:
    n = pts.shape[0]
    if n <= 3:
        return brute_force_closest(pts)
    mid = n // 2
    mid_x = pts[mid, 0]
    best = min(_closest(pts[:mid]), _closest(pts[mid:]))
    return min(best, strip_best(pts, mid_x, best))


def strip_best(pts: np.ndarray, mid_x: float, best: float) -> float:
    """Scan the vertical strip of half-width ``best`` around ``mid_x``."""
    import numpy as np

    strip = pts[np.abs(pts[:, 0] - mid_x) < best]
    strip = strip[np.argsort(strip[:, 1], kind="stable")]
    m = strip.shape[0]
    for i in range(m):
        # classic bound: at most a constant number of strip neighbours
        for j in range(i + 1, min(i + 8, m)):
            if strip[j, 1] - strip[i, 1] >= best:
                break
            best = min(best, float(np.hypot(*(strip[j] - strip[i]))))
    return best


def closest_pair_spec() -> DCSpec:
    """Closest pair through the generic framework: a=b=2, f(n)=Θ(n).

    Subproblem solutions carry ``(min_distance, points)`` so the
    combine step can run its strip scan.
    """
    import numpy as np

    def combine(subs, points: np.ndarray):
        (d_left, left), (d_right, right) = subs
        best = min(d_left, d_right)
        mid_x = float(right[0, 0]) if right.shape[0] else float("inf")
        merged = np.vstack([left, right])
        best = min(best, strip_best(merged, mid_x, best) if best < float("inf") else brute_force_closest(merged))
        return (best, merged)

    return DCSpec(
        name="closest-pair",
        a=2,
        b=2,
        is_base=lambda pts: pts.shape[0] <= 3,
        base_case=lambda pts: (brute_force_closest(pts), pts),
        divide=lambda pts: (pts[: pts.shape[0] // 2], pts[pts.shape[0] // 2 :]),
        combine=combine,
        size_of=lambda pts: int(pts.shape[0]),
        f_cost=lambda n: float(n),
        leaf_cost=3.0,
    )


def closest_pair_via_spec(points: np.ndarray) -> float:
    """Convenience: run the spec through the recursive executor."""
    import numpy as np

    from repro.core.recursive import run_recursive

    pts = _validated(points)
    order = np.argsort(pts[:, 0], kind="stable")
    result = run_recursive(closest_pair_spec(), pts[order])
    return result.solution[0]


def _validated(points: np.ndarray) -> np.ndarray:
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SpecError(
            f"closest_pair expects an (n, 2) array, got shape {pts.shape}"
        )
    if pts.shape[0] < 2:
        raise SpecError("closest_pair needs at least two points")
    return pts
