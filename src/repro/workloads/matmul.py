"""Registry adapter: classical D&C matrix multiplication (a = 8).

The maximally leaf-heavy recursion (``log₂ 8 = 3``) the paper's §7
names as the natural next case study.  The timing build delegates to
:func:`repro.algorithms.matmul.make_matmul_workload` — the same
workload ``experiments/ext_matmul.py`` sweeps — so registering it
cannot move that figure.  The host mirrors the Strassen adapter's
eager 8-ary problem tree: quadrant products at the leaves, pairwise
quadrant additions on the way up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.algorithms.matmul import (
    BASE_DIM,
    combine_step,
    divide_step,
    make_matmul_workload,
)
from repro.core.schedule.workload import LEAVES, DCWorkload, LevelRef
from repro.errors import SpecError
from repro.util.intmath import ilog2, is_power_of_two
from repro.workloads.registry import (
    HostRun,
    VerificationError,
    WorkloadEntry,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class MatmulHost:
    """Host-side state: the eagerly-expanded 8-ary problem tree."""

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
                f"matmul host needs equal square power-of-two matrices, "
                f"got {a.shape} and {b.shape}"
            )
        self.dim = dim
        self.k = ilog2(dim) - ilog2(BASE_DIM)
        self.problems: List[list] = [[(a, b)]]
        for _ in range(self.k):
            nxt = []
            for x, y in self.problems[-1]:
                nxt.extend(divide_step(x, y))
            self.problems.append(nxt)
        self.solutions: List[list] = [
            [None] * (8**i) for i in range(self.k + 1)
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
            subs = child[8 * j : 8 * j + 8]
            if any(m is None for m in subs):
                raise VerificationError(
                    f"matmul: combine at level {level}, task {j} ran "
                    f"before its children"
                )
            self.solutions[level][j] = combine_step(subs)

    @property
    def product(self) -> np.ndarray:
        """The root solution C = A·B (None until the run completes)."""
        return self.solutions[0][0]


def _build(dim: int) -> DCWorkload:
    return make_matmul_workload(dim)


def _build_host(dim: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    host = MatmulHost(a, b)
    workload = make_matmul_workload(dim, element_bytes=8, host=host)

    def verify() -> None:
        if host.product is None:
            raise VerificationError(
                f"matmul(dim={dim}): no product computed (did the "
                f"combine levels run?)"
            )
        if not np.allclose(host.product, a @ b, rtol=1e-10, atol=1e-10):
            raise VerificationError(
                f"matmul(dim={dim}): product differs from the numpy "
                f"reference"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="matmul",
        title="Classical blocked matrix product (a = 8, leaf-heavy)",
        recurrence="T(n) = 8·T(n/2) + n²",
        build=_build,
        size_label="dim",
        min_n=8,  # make_matmul_workload requires dim >= 4·BASE_DIM
        build_host=_build_host,
        fast_sizes=(64, 128, 256),
        full_sizes=(16, 32, 64, 128, 256, 512, 1024),
        conformance_band=0.40,
        meta={"base_dim": BASE_DIM, "parallel_tail": True},
    )
)
