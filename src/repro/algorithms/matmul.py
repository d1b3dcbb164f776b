"""Classical divide-and-conquer matrix multiplication (a = 8).

Section 7 of the paper singles out dense matrix operations as the
natural next case study ("problems in which the parallelization of the
divide and conquer portions of algorithms is simple — such as dense
matrix operations").  This module provides that case study through the
generic framework:

    C = A·B  with  T(n) = 8·T(n/2) + Θ(n²)

— eight half-size products per division, quadrant additions to
combine.  Compared with mergesort this recurrence is maximally
leaf-heavy (`log_2 8 = 3`), so the model pushes almost all the work to
the GPU and the optimal transfer level hugs the saturation boundary; a
useful stress of the scheduler at the opposite end of the design space
from the balanced family.  (Strassen, the *fast* D&C product, lives in
:mod:`repro.algorithms.strassen`.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

Problem = Tuple["np.ndarray", "np.ndarray"]

#: Dimension at which recursion bottoms out into a direct product.
BASE_DIM = 2


def matmul_recursive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct recursive implementation (the sequential baseline)."""
    import numpy as np

    _validate(a, b)

    def recurse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if n <= BASE_DIM:
            return x @ y
        h = n // 2
        out = np.empty_like(x)
        out[:h, :h] = recurse(x[:h, :h], y[:h, :h]) + recurse(
            x[:h, h:], y[h:, :h]
        )
        out[:h, h:] = recurse(x[:h, :h], y[:h, h:]) + recurse(
            x[:h, h:], y[h:, h:]
        )
        out[h:, :h] = recurse(x[h:, :h], y[:h, :h]) + recurse(
            x[h:, h:], y[h:, :h]
        )
        out[h:, h:] = recurse(x[h:, :h], y[:h, h:]) + recurse(
            x[h:, h:], y[h:, h:]
        )
        return out

    return recurse(np.asarray(a), np.asarray(b))


def divide_step(x: np.ndarray, y: np.ndarray):
    """The eight quadrant products of one classical block product.

    Fixed order (A11B11, A12B21, A11B12, A12B22, A21B11, A22B21,
    A21B12, A22B22): consecutive pairs sum into one output quadrant.
    """
    h = x.shape[0] // 2
    a11, a12, a21, a22 = x[:h, :h], x[:h, h:], x[h:, :h], x[h:, h:]
    b11, b12, b21, b22 = y[:h, :h], y[:h, h:], y[h:, :h], y[h:, h:]
    return (
        (a11, b11),
        (a12, b21),
        (a11, b12),
        (a12, b22),
        (a21, b11),
        (a22, b21),
        (a21, b12),
        (a22, b22),
    )


def combine_step(subs) -> np.ndarray:
    """Assemble one product from its eight quadrant-product solutions."""
    import numpy as np

    h = subs[0].shape[0]
    out = np.empty((2 * h, 2 * h), dtype=subs[0].dtype)
    out[:h, :h] = subs[0] + subs[1]
    out[:h, h:] = subs[2] + subs[3]
    out[h:, :h] = subs[4] + subs[5]
    out[h:, h:] = subs[6] + subs[7]
    return out


def matmul_spec() -> DCSpec:
    """Classical blocked matmul through the generic framework."""

    def divide(problem: Problem):
        return divide_step(*problem)

    def combine(subs, problem: Problem):
        return combine_step(subs)

    return DCSpec(
        name="matmul",
        a=8,
        b=2,
        is_base=lambda problem: problem[0].shape[0] <= BASE_DIM,
        base_case=lambda problem: problem[0] @ problem[1],
        divide=divide,
        combine=combine,
        size_of=lambda problem: int(problem[0].shape[0]),
        f_cost=lambda n: float(n * n),  # quadrant additions: n^2 adds
        leaf_cost=float(2 * BASE_DIM**3),  # 2x2 direct product
    )


class _MatmulParallelSteps:
    """One work-item per output element at a combine level (§7).

    Module-level class with value equality (keyed on the matrix
    dimension) so matmul workloads pickle — and compare — across
    process-parallel sweeps, per the mergesort adapter's convention.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def __eq__(self, other) -> bool:
        return type(other) is _MatmulParallelSteps and other.dim == self.dim

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.dim))

    def __call__(self, workload, level, tasks, offset):
        from repro.core.schedule.workload import LEAVES, KernelStep
        from repro.errors import ScheduleError
        from repro.opencl.kernel import AccessPattern

        if level == LEAVES:
            raise ScheduleError("parallel kernels apply to combine levels")
        size = self.dim >> int(level)  # output dimension at this level
        return [
            KernelStep(
                name=f"quadrant-add:{level}",
                items=tasks * size * size,  # one item per output element
                ops_per_item=2.0,
                divergent=False,
                access=AccessPattern.COALESCED,
            )
        ]


def make_matmul_workload(dim: int, element_bytes: int = 4, host=None):
    """Timing workload for a ``dim × dim`` classical D&C product.

    The per-subproblem GPU step follows the generic translation (one
    divergent thread doing its quadrant additions); the *parallel*
    steps — one work-item per output element — implement §7's
    observation that for dense matrix operations the combine is
    trivially parallel, enabling the parallel-tail extension.

    ``host`` (an object exposing the ``DCWorkload`` functional-hook
    surface as ``host.execute``) makes runs really multiply its
    matrices; ``None`` keeps the timing-only workload the experiment
    sweeps use.
    """
    from repro.core.schedule.workload import DCWorkload
    from repro.errors import ScheduleError
    from repro.util.intmath import ilog2

    if not is_power_of_two(dim) or dim < 4 * BASE_DIM:
        raise ScheduleError(
            f"matmul workload needs a power-of-two dim >= {4 * BASE_DIM}, "
            f"got {dim}"
        )
    k = ilog2(dim) - ilog2(BASE_DIM)

    return DCWorkload(
        name=f"matmul[{dim}]",
        level_tasks=[8**i for i in range(k)],
        level_cost=[float((dim >> i) ** 2) for i in range(k)],
        leaf_tasks=8**k,
        leaf_cost=float(2 * BASE_DIM**3),
        total_elements=dim * dim,  # the output matrix C
        element_bytes=element_bytes,
        working_set_factor=3.0,  # A, B and C resident
        execute=host.execute if host is not None else None,
        gpu_parallel_steps_fn=_MatmulParallelSteps(dim),
        rec_a=8,
        rec_b=2,
    )


def _validate(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"matmul expects square matrices, got {a.shape}")
    if a.shape != b.shape:
        raise SpecError(
            f"matmul expects equal shapes, got {a.shape} and {b.shape}"
        )
    if not is_power_of_two(a.shape[0]):
        raise SpecError(
            f"matmul (this implementation) needs power-of-two dimension, "
            f"got {a.shape[0]}"
        )
