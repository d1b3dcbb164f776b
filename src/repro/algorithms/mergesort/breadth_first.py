"""Algorithm 7: breadth-first mergesort.

The translated form of Algorithm 6: a single bottom-up pass over
sublist sizes 2, 4, …, n, merging every adjacent pair of runs at each
level.  No divide step and no base-case work exist for mergesort (a
size-1 sublist is trivially sorted), so only the combine loop remains
— exactly as §6 describes the conversion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.mergesort.merges import merge_pairs_level
from repro.algorithms.mergesort.recursive import require_power_of_two
from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def mergesort_bf(array: np.ndarray, strict: bool = False) -> np.ndarray:
    """Sort a copy of ``array`` breadth-first (power-of-two length).

    ``strict=True`` uses the verifying merge path (tests); the default
    uses the vectorized fast path.
    """
    import numpy as np

    data = np.asarray(array)
    if data.ndim != 1:
        raise SpecError(f"mergesort expects a 1-D array, got shape {data.shape}")
    require_power_of_two(max(data.size, 1))
    out = data.copy()
    size = 2
    while size <= out.size:
        merge_pairs_level(out, size, strict=strict)
        size *= 2
    return out
