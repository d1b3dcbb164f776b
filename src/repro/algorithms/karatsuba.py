"""Karatsuba polynomial multiplication as a DCSpec.

``T(n) = 3·T(n/2) + Θ(n)`` — a leaves-dominated recurrence
(``log2 3 ≈ 1.585``), demonstrating the framework on an algorithm with
``a != b`` that the paper's normal form covers but its evaluation does
not exercise.

Problems are pairs of equal-length coefficient arrays; the solution is
their product polynomial's coefficients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

Problem = Tuple["np.ndarray", "np.ndarray"]


def schoolbook_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Θ(n²) reference product (also the base case)."""
    import numpy as np

    return np.convolve(a, b)


def karatsuba_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct Karatsuba implementation (the sequential baseline)."""
    import numpy as np

    a = np.asarray(a)
    b = np.asarray(b)
    _validate(a, b)

    def recurse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = x.size
        if n <= 2:
            return np.convolve(x, y)
        half = n // 2
        x_lo, x_hi = x[:half], x[half:]
        y_lo, y_hi = y[:half], y[half:]
        low = recurse(x_lo, y_lo)
        high = recurse(x_hi, y_hi)
        mid = recurse(x_lo + x_hi, y_lo + y_hi) - low - high
        out = np.zeros(2 * n - 1, dtype=np.result_type(x, y))
        out[: low.size] += low
        out[half : half + mid.size] += mid
        out[2 * half : 2 * half + high.size] += high
        return out

    return recurse(a, b)


def karatsuba_spec() -> DCSpec:
    """Karatsuba through the generic framework: a=3, b=2, f(n)=Θ(n)."""
    import numpy as np

    def divide(problem: Problem):
        x, y = problem
        half = x.size // 2
        return (
            (x[:half].copy(), y[:half].copy()),
            (x[half:].copy(), y[half:].copy()),
            (x[:half] + x[half:], y[:half] + y[half:]),
        )

    def combine(subs, problem: Problem):
        x, _ = problem
        half = x.size // 2
        low, high, both = subs
        mid = both - low - high
        out = np.zeros(2 * x.size - 1, dtype=low.dtype)
        out[: low.size] += low
        out[half : half + mid.size] += mid
        out[2 * half : 2 * half + high.size] += high
        return out

    return DCSpec(
        name="karatsuba",
        a=3,
        b=2,
        is_base=lambda problem: problem[0].size <= 2,
        base_case=lambda problem: np.convolve(problem[0], problem[1]),
        divide=divide,
        combine=combine,
        size_of=lambda problem: int(problem[0].size),
        f_cost=lambda n: float(4 * n),  # splits, pointwise adds, recombine
        leaf_cost=4.0,  # 2x2 schoolbook product
    )


def _validate(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 1 or b.ndim != 1:
        raise SpecError("karatsuba expects 1-D coefficient arrays")
    if a.size != b.size:
        raise SpecError(
            f"karatsuba expects equal lengths, got {a.size} and {b.size}"
        )
    if not is_power_of_two(max(a.size, 1)):
        raise SpecError(
            f"karatsuba (this implementation) needs power-of-two length, "
            f"got {a.size}"
        )
