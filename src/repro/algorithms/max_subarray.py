"""Maximum contiguous subarray sum as a DCSpec.

The classic D&C formulation: ``T(n) = 2·T(n/2) + Θ(n)`` (the crossing
sum scans both halves).  Balanced family like mergesort, but with a
constant-size solution per subproblem — a different shape of combine
from the array-rewriting merges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass

from repro.core.spec import DCSpec
from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class SubarraySummary:
    """The four quantities the combine step needs from each half."""

    best: float  # max subarray sum anywhere in the range
    prefix: float  # max sum of a prefix
    suffix: float  # max sum of a suffix
    total: float  # sum of the whole range


def _leaf(value: float) -> SubarraySummary:
    return SubarraySummary(best=value, prefix=value, suffix=value, total=value)


def _merge(left: SubarraySummary, right: SubarraySummary) -> SubarraySummary:
    return SubarraySummary(
        best=max(left.best, right.best, left.suffix + right.prefix),
        prefix=max(left.prefix, left.total + right.prefix),
        suffix=max(right.suffix, right.total + left.suffix),
        total=left.total + right.total,
    )


def max_subarray(array: np.ndarray) -> float:
    """Kadane-style reference: max sum over non-empty subarrays."""
    import numpy as np

    data = np.asarray(array, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise SpecError(
            f"max_subarray expects a non-empty 1-D array, got shape "
            f"{data.shape}"
        )
    best = running = data[0]
    for value in data[1:]:
        running = max(value, running + value)
        best = max(best, running)
    return float(best)


def max_subarray_spec() -> DCSpec:
    """Max subarray through the generic framework: a=b=2, f(n)=Θ(n).

    (The summary-based combine is O(1); we keep the textbook Θ(n)
    crossing-scan cost so the spec matches the balanced family the
    paper analyzes — the work model is the algorithm's, not the
    cleverest implementation's.)
    """
    return DCSpec(
        name="max-subarray",
        a=2,
        b=2,
        is_base=lambda view: view.size == 1,
        base_case=lambda view: _leaf(float(view[0])),
        divide=lambda view: (view[: view.size // 2], view[view.size // 2 :]),
        combine=lambda subs, view: _merge(subs[0], subs[1]),
        size_of=lambda view: int(view.size),
        f_cost=lambda n: float(n),
        leaf_cost=1.0,
    )
