"""Registry adapter: Strassen matrix multiplication (a = 7).

The widest recursion in the library — ``T(n) = 7·T(n/2) + Θ(n²)`` —
stressing every ``a``-generic code path (non-power-of-two arity task
counts, 7-way child indexing, leaf batches of 7^k tasks).  ``n`` is
the matrix dimension.

As with quicksort, the divide work (building the seven M-subproblems
per node) is the translation's downward sweep and runs eagerly at host
construction; the scheduled hooks then compute every leaf product
(base phase) and assemble every node from its seven children
(combine levels, bottom-up).  Drop or reorder one batch and the final
product is wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.algorithms.strassen import BASE_DIM, combine_step, divide_step
from repro.core.schedule.workload import (
    LEAVES,
    DCWorkload,
    KernelStep,
    LevelRef,
)
from repro.errors import SpecError
from repro.opencl.kernel import AccessPattern
from repro.util.intmath import ilog2, is_power_of_two
from repro.workloads.registry import (
    HostRun,
    VerificationError,
    WorkloadEntry,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class StrassenHost:
    """Host-side state: the eagerly-expanded 7-ary problem tree."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        import numpy as np

        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        dim = a.shape[0]
        if (
            a.ndim != 2
            or a.shape != (dim, dim)
            or a.shape != b.shape
            or not is_power_of_two(max(dim, 1))
        ):
            raise SpecError(
                f"strassen host needs equal square power-of-two matrices, "
                f"got {a.shape} and {b.shape}"
            )
        self.dim = dim
        self.k = ilog2(dim) - ilog2(BASE_DIM)
        # Downward sweep (Algorithm 2): problems[i][j] is the j-th
        # subproblem at depth i; problems[k] are the leaf products.
        self.problems: List[list] = [[(a, b)]]
        for _ in range(self.k):
            nxt = []
            for x, y in self.problems[-1]:
                nxt.extend(divide_step(x, y))
            self.problems.append(nxt)
        self.solutions: List[list] = [
            [None] * (7**i) for i in range(self.k + 1)
        ]

    def execute(
        self, phase: str, level: LevelRef, offset: int, count: int
    ) -> None:
        if phase == "base" or level == LEAVES:
            for j in range(offset, offset + count):
                x, y = self.problems[self.k][j]
                self.solutions[self.k][j] = x @ y
            return
        level = int(level)
        child = self.solutions[level + 1]
        for j in range(offset, offset + count):
            subs = child[7 * j : 7 * j + 7]
            if any(m is None for m in subs):
                raise VerificationError(
                    f"strassen: combine at level {level}, task {j} ran "
                    f"before its children"
                )
            self.solutions[level][j] = combine_step(subs)

    @property
    def product(self) -> np.ndarray:
        """The root solution C = A·B (None until the run completes)."""
        return self.solutions[0][0]


class _StrassenGpuSteps:
    """GPU steps: element-parallel quadrant adds, divergent leaf GEMMs."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is _StrassenGpuSteps

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __call__(
        self, workload: DCWorkload, level: LevelRef, tasks: int, offset: int
    ) -> List[KernelStep]:
        if level == LEAVES:
            return [
                KernelStep(
                    name="leaf-gemm",
                    items=tasks,
                    ops_per_item=workload.leaf_cost,
                    divergent=True,
                    access=AccessPattern.COALESCED,
                )
            ]
        dim = round(workload.total_elements**0.5)
        half = dim >> (int(level) + 1)  # half-size matrices at this level
        return [
            KernelStep(
                name=f"m-combine:{level}",
                items=tasks * half * half,  # one item per output element
                ops_per_item=18.0,  # the 18 half-size add/sub passes
                divergent=False,
                access=AccessPattern.COALESCED,
            )
        ]


def _make_workload(dim: int, host) -> DCWorkload:
    k = ilog2(dim) - ilog2(BASE_DIM)
    return DCWorkload(
        name=f"strassen[{dim}]",
        level_tasks=[7**i for i in range(k)],
        level_cost=[float(18 * (dim >> (i + 1)) ** 2) for i in range(k)],
        leaf_tasks=7**k,
        leaf_cost=float(2 * BASE_DIM**3),
        total_elements=dim * dim,  # the output matrix C
        element_bytes=8,  # float64 entries
        working_set_factor=4.0,  # A, B, C and the live M-temporaries
        execute=host.execute if host is not None else None,
        gpu_steps_fn=_StrassenGpuSteps(),
        rec_a=7,
        rec_b=2,
        meta={"base_dim": BASE_DIM},
    )


def _build(dim: int) -> DCWorkload:
    return _make_workload(dim, host=None)


def _build_host(dim: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    host = StrassenHost(a, b)
    workload = _make_workload(dim, host=host)

    def verify() -> None:
        if host.product is None:
            raise VerificationError(
                f"strassen(dim={dim}): no product computed (did the "
                f"combine levels run?)"
            )
        if not np.allclose(host.product, a @ b, rtol=1e-8, atol=1e-8):
            raise VerificationError(
                f"strassen(dim={dim}): product differs from the numpy "
                f"reference"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="strassen",
        title="Strassen matrix product (a = 7, the widest recursion)",
        recurrence="T(n) = 7·T(n/2) + 18·(n/2)²",
        build=_build,
        size_label="dim",
        min_n=8,  # k >= 2 internal levels for the advanced strategy
        build_host=_build_host,
        fast_sizes=(32, 64, 128),
        full_sizes=(16, 32, 64, 128, 256),
        conformance_band=0.30,
        meta={"base_dim": BASE_DIM},
    )
)
