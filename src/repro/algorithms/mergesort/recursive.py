"""Algorithm 6: the classic recursive mergesort, plus its DCSpec.

The recursive form is the paper's 1-core baseline.  ``mergesort_spec``
expresses the same algorithm through the generic framework, which lets
the framework-level executors (Algorithms 1–2) and the analytical model
consume mergesort without any bespoke code — the paper's genericity
claim in miniature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.mergesort.merges import merge_two_pointer
from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def mergesort_recursive(array: np.ndarray) -> np.ndarray:
    """Sort a copy of ``array`` with the textbook recursive mergesort."""
    import numpy as np

    data = np.asarray(array)
    if data.ndim != 1:
        raise SpecError(f"mergesort expects a 1-D array, got shape {data.shape}")

    def sort(view: np.ndarray) -> np.ndarray:
        if view.size <= 1:
            return view
        half = view.size // 2
        return merge_two_pointer(sort(view[:half]), sort(view[half:]))

    return sort(data.copy())


def mergesort_spec() -> DCSpec:
    """Mergesort as a :class:`~repro.core.spec.DCSpec`.

    Problems are (read-only) NumPy array views; solutions are sorted
    arrays.  ``a = b = 2`` and ``f(n) = n`` — the balanced family of
    §5.2.2.
    """
    return DCSpec(
        name="mergesort",
        a=2,
        b=2,
        is_base=lambda view: view.size <= 1,
        base_case=lambda view: view.copy(),
        divide=lambda view: (view[: view.size // 2], view[view.size // 2 :]),
        combine=lambda subs, view: merge_two_pointer(subs[0], subs[1]),
        size_of=lambda view: int(view.size),
        f_cost=lambda n: float(n),
        leaf_cost=1.0,
    )


def require_power_of_two(n: int) -> None:
    """The paper's footnote-4 simplification, enforced loudly."""
    if not is_power_of_two(n):
        raise SpecError(
            f"the hybrid mergesort implementations follow the paper in "
            f"requiring power-of-two inputs; got n={n}"
        )
