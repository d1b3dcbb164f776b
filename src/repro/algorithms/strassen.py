"""Strassen matrix multiplication as a DCSpec.

``T(n) = 7·T(n/2) + Θ(n²)`` over n×n matrices — the widest recursion
(a = 7) in the library, stressing the framework's arity handling.
Problems are matrix pairs; ``size`` is the matrix dimension ``n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

Problem = Tuple["np.ndarray", "np.ndarray"]

#: Below this dimension, fall back to the classical product.
BASE_DIM = 2


def strassen_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct Strassen implementation (the sequential baseline)."""
    import numpy as np

    _validate(a, b)

    def recurse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if n <= BASE_DIM:
            return x @ y
        h = n // 2
        a11, a12, a21, a22 = x[:h, :h], x[:h, h:], x[h:, :h], x[h:, h:]
        b11, b12, b21, b22 = y[:h, :h], y[:h, h:], y[h:, :h], y[h:, h:]
        m1 = recurse(a11 + a22, b11 + b22)
        m2 = recurse(a21 + a22, b11)
        m3 = recurse(a11, b12 - b22)
        m4 = recurse(a22, b21 - b11)
        m5 = recurse(a11 + a12, b22)
        m6 = recurse(a21 - a11, b11 + b12)
        m7 = recurse(a12 - a22, b21 + b22)
        out = np.empty_like(x)
        out[:h, :h] = m1 + m4 - m5 + m7
        out[:h, h:] = m3 + m5
        out[h:, :h] = m2 + m4
        out[h:, h:] = m1 - m2 + m3 + m6
        return out

    return recurse(np.asarray(a), np.asarray(b))


def divide_step(x: np.ndarray, y: np.ndarray):
    """The seven Strassen subproblems of one product (M1 … M7)."""
    h = x.shape[0] // 2
    a11, a12, a21, a22 = x[:h, :h], x[:h, h:], x[h:, :h], x[h:, h:]
    b11, b12, b21, b22 = y[:h, :h], y[:h, h:], y[h:, :h], y[h:, h:]
    return (
        (a11 + a22, b11 + b22),
        (a21 + a22, b11.copy()),
        (a11.copy(), b12 - b22),
        (a22.copy(), b21 - b11),
        (a11 + a12, b22.copy()),
        (a21 - a11, b11 + b12),
        (a12 - a22, b21 + b22),
    )


def combine_step(subs) -> np.ndarray:
    """Assemble one product from its seven subproblem solutions."""
    import numpy as np

    m1, m2, m3, m4, m5, m6, m7 = subs
    h = m1.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=m1.dtype)
    out[:h, :h] = m1 + m4 - m5 + m7
    out[:h, h:] = m3 + m5
    out[h:, :h] = m2 + m4
    out[h:, h:] = m1 - m2 + m3 + m6
    return out


def strassen_spec() -> DCSpec:
    """Strassen through the generic framework: a=7, b=2, f(n)=Θ(n²)."""

    def divide(problem: Problem):
        return divide_step(*problem)

    def combine(subs, problem: Problem):
        return combine_step(subs)

    return DCSpec(
        name="strassen",
        a=7,
        b=2,
        is_base=lambda problem: problem[0].shape[0] <= BASE_DIM,
        base_case=lambda problem: problem[0] @ problem[1],
        divide=divide,
        combine=combine,
        size_of=lambda problem: int(problem[0].shape[0]),
        f_cost=lambda n: float(18 * (n // 2) ** 2),  # 18 half-size adds
        leaf_cost=float(2 * BASE_DIM**3),
    )


def _validate(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"strassen expects square matrices, got {a.shape}")
    if a.shape != b.shape:
        raise SpecError(
            f"strassen expects equal shapes, got {a.shape} and {b.shape}"
        )
    if not is_power_of_two(a.shape[0]):
        raise SpecError(
            f"strassen (this implementation) needs power-of-two dimension, "
            f"got {a.shape[0]}"
        )
