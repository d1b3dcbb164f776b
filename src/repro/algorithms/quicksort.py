"""Balanced quicksort as a DCSpec.

Quicksort is the canonical *divide-heavy* member of the balanced
family: ``T(n) = 2·T(n/2) + Θ(n)`` like mergesort, but the Θ(n) work
is the *partition* performed on the way down rather than a merge on
the way up — the mirror image of mergesort, and therefore the natural
first check that nothing in the generic pipeline silently assumes the
per-level work happens in the combine.

The paper's translation (§4) requires a *regular* recursion tree, so
the spec uses the median-split variant: each divide partitions around
the exact median (``numpy.partition``), guaranteeing both halves have
exactly ``n/2`` elements.  The classic randomized pivot gives the same
expected geometry but an irregular tree; the regularized form is what
a breadth-first translation schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Leaf block: ranges of this size are sorted directly (the §7
#: sequential tail, which also keeps at least one real base phase for
#: the functional hook to execute).
LEAF_BLOCK = 4

#: Cost of sorting one leaf block, in the model's comparison units
#: (``S·(log2 S + 1)``, matching the mergesort leaf-block convention).
LEAF_COST = float(LEAF_BLOCK) * 3.0


def quicksort(array: np.ndarray) -> np.ndarray:
    """Pure recursive quicksort (the sequential reference).

    Textbook three-way partition around a middle pivot; returns a new
    sorted array, leaving the input untouched.
    """
    import numpy as np

    data = np.asarray(array)
    if data.ndim != 1:
        raise SpecError(
            f"quicksort expects a 1-D array, got shape {data.shape}"
        )

    def recurse(a: np.ndarray) -> np.ndarray:
        if a.size <= 1:
            return a.copy()
        pivot = a[a.size // 2]
        return np.concatenate(
            [recurse(a[a < pivot]), a[a == pivot], recurse(a[a > pivot])]
        )

    return recurse(data)


def median_partition(block: np.ndarray) -> None:
    """In-place balanced partition: left half <= right half.

    ``numpy.partition`` with ``kth = len/2`` leaves every element of
    ``block[:h]`` no greater than every element of ``block[h:]`` — the
    exact-median pivot that keeps the recursion tree regular.
    """
    import numpy as np

    h = block.shape[0] // 2
    block[:] = np.partition(block, h)


def quicksort_spec() -> DCSpec:
    """Median-split quicksort through the generic framework.

    a = b = 2 with ``f(n) = Θ(n)`` charged to the *divide*; the combine
    is the trivial concatenation of the already-ordered halves.
    """
    import numpy as np

    def divide(arr: np.ndarray):
        h = arr.shape[0] // 2
        part = np.partition(arr, h)
        return (part[:h], part[h:])

    return DCSpec(
        name="quicksort",
        a=2,
        b=2,
        is_base=lambda arr: arr.shape[0] <= LEAF_BLOCK,
        base_case=lambda arr: np.sort(arr),
        divide=divide,
        combine=lambda subs, arr: np.concatenate(subs),
        size_of=lambda arr: int(arr.shape[0]),
        f_cost=lambda n: float(n),  # the partition pass
        leaf_cost=LEAF_COST,
    )


def quicksort_via_spec(array: np.ndarray) -> np.ndarray:
    """Convenience: run the spec through the recursive executor."""
    import numpy as np

    from repro.core.recursive import run_recursive

    data = np.asarray(array)
    if data.ndim != 1 or not is_power_of_two(max(data.size, 1)):
        raise SpecError(
            f"the regular quicksort spec needs a 1-D power-of-two array, "
            f"got shape {data.shape}"
        )
    return run_recursive(quicksort_spec(), data).solution
