"""Merge primitives.

Three implementations with one contract, used at different points:

- :func:`merge_two_pointer` — the classic sequential merge; this is the
  body a single GPU thread (or CPU task) executes in the hybrid scheme,
  and the reference all faster paths are validated against.
- :func:`merge_binary_search` — the paper's parallel GPU merge (§6.4):
  each element finds its output position with a binary search in the
  *other* run; embarrassingly parallel, vectorized here with
  ``np.searchsorted`` per the HPC guides.
- :func:`merge_pairs_level` — merge ``m`` adjacent (left, right) run
  pairs stored contiguously in a ``(m, size)`` matrix, the whole-level
  operation of the breadth-first form.  The fast path exploits that a
  row is a permutation of its merged output, so a row-wise ``np.sort``
  yields exactly the merge result; the strict path really merges and
  *verifies sortedness of the halves*, catching level-ordering bugs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def merge_two_pointer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sequential two-pointer merge of two sorted runs (reference).

    Cost model: ``len(left) + len(right)`` abstract ops — the paper's
    ``f(n) = Θ(n)`` for mergesort.
    """
    import numpy as np

    out = np.empty(left.size + right.size, dtype=np.result_type(left, right))
    i = j = k = 0
    while i < left.size and j < right.size:
        if left[i] <= right[j]:
            out[k] = left[i]
            i += 1
        else:
            out[k] = right[j]
            j += 1
        k += 1
    if i < left.size:
        out[k:] = left[i:]
    else:
        out[k:] = right[j:]
    return out


def merge_binary_search(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Parallel merge: each element's rank is found by binary search.

    An element ``left[i]`` lands at ``i + |{r in right : r < left[i]}|``
    (ties broken toward ``left`` for stability), and symmetrically for
    ``right``.  Each position is independent — one GPU work-item per
    element, ``Θ(log n)`` ops each.
    """
    import numpy as np

    out = np.empty(left.size + right.size, dtype=np.result_type(left, right))
    # left elements: count of strictly-smaller right elements
    pos_left = np.arange(left.size) + np.searchsorted(right, left, side="left")
    # right elements: count of smaller-or-equal left elements (stability)
    pos_right = np.arange(right.size) + np.searchsorted(left, right, side="right")
    out[pos_left] = left
    out[pos_right] = right
    return out


def merge_pairs_level(
    flat: np.ndarray, size: int, strict: bool = False
) -> None:
    """Merge every adjacent pair of sorted ``size/2`` runs, in place.

    ``flat`` is a 1-D array whose length is a multiple of ``size``;
    each consecutive ``size`` chunk holds two sorted runs of ``size/2``
    to be merged (Algorithm 7's inner loop across all sublists).

    With ``strict=True`` the halves are checked to actually be sorted
    and merged with the binary-search merge — slower, used in tests.
    The default fast path is a vectorized row sort, which produces the
    identical output for genuinely sorted halves.
    """
    import numpy as np

    if size < 2 or size % 2:
        raise ScheduleError(f"pair-merge size must be even and >= 2, got {size}")
    if flat.size % size:
        raise ScheduleError(
            f"array of {flat.size} elements is not a multiple of the "
            f"sublist size {size}"
        )
    rows = flat.reshape(-1, size)
    if not strict:
        rows.sort(axis=1)
        return
    half = size // 2
    for row in rows:
        left, right = row[:half], row[half:]
        if np.any(left[:-1] > left[1:]) or np.any(right[:-1] > right[1:]):
            raise ScheduleError(
                "strict pair-merge found an unsorted half: the schedule "
                "executed levels out of order"
            )
        row[:] = merge_binary_search(left, right)
