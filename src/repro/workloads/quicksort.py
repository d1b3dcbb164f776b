"""Registry adapter: balanced quicksort (divide-heavy mirror).

Quicksort puts its Θ(n) per-level work in the *divide* (the partition
on the way down), while the scheduled execution order — base batch
first, then internal levels bottom-up — is the breadth-first *upward*
sweep.  The adapter resolves this the way Algorithm 2 does: the
downward sweep (every median partition, level by level) runs eagerly
when the host is built, which is exactly the translation's
divide-phase expansion of the recursion tree.  The scheduled hooks
then do the remaining real work: the base phase sorts each
``LEAF_BLOCK``-element partition class (without it the output is
provably unsorted — schedule coverage is observable in the answer),
and each internal "combine" slot re-checks its partition fence, the
level's post-condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.algorithms.quicksort import LEAF_BLOCK, LEAF_COST, median_partition
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


@dataclass
class QuicksortHost:
    """Host-side state: the array, eagerly median-partitioned."""

    array: np.ndarray

    def __post_init__(self) -> None:
        n = self.array.size
        if self.array.ndim != 1 or not is_power_of_two(max(n, 1)):
            raise SpecError(
                f"quicksort host needs a 1-D power-of-two array, got "
                f"shape {self.array.shape}"
            )
        self.k = ilog2(n) - ilog2(LEAF_BLOCK)
        # Algorithm 2's downward sweep, performed eagerly: level i
        # splits each of its 2^i segments around the exact median.
        for level in range(self.k):
            seg = n >> level
            for j in range(1 << level):
                median_partition(self.array[j * seg : (j + 1) * seg])
        # np.partition fully sorts tiny segments as a side effect, which
        # would leave nothing for the scheduled base phase to do.  The
        # divide contract only promises fences *between* blocks, so flip
        # each leaf block descending: a valid post-divide state in which
        # every dropped base batch is observable as an unsorted block.
        blocks = self.array.reshape(-1, LEAF_BLOCK)
        blocks[:] = blocks[:, ::-1]

    def execute(
        self, phase: str, level: LevelRef, offset: int, count: int
    ) -> None:
        if phase == "base" or level == LEAVES:
            lo = offset * LEAF_BLOCK
            hi = (offset + count) * LEAF_BLOCK
            self.array[lo:hi].reshape(count, LEAF_BLOCK).sort(axis=1)
            return
        # The level's post-condition: every scheduled segment is fenced
        # around its median (left half <= right half).
        seg = self.array.size >> int(level)
        h = seg // 2
        for j in range(offset, offset + count):
            block = self.array[j * seg : (j + 1) * seg]
            if block[:h].max() > block[h:].min():
                raise VerificationError(
                    f"quicksort: partition fence violated at level "
                    f"{level}, task {j}"
                )


class _QuicksortGpuSteps:
    """GPU step expansion: per-segment partition / per-leaf block sort.

    Module-level class with value equality so workloads pickle (and
    compare) across process-parallel sweeps, mirroring the mergesort
    adapter's convention.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is _QuicksortGpuSteps

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __call__(
        self, workload: DCWorkload, level: LevelRef, tasks: int, offset: int
    ) -> List[KernelStep]:
        if level == LEAVES:
            return [
                KernelStep(
                    name="leaf-sort",
                    items=tasks,
                    ops_per_item=workload.leaf_cost,
                    divergent=True,
                    access=AccessPattern.COALESCED,
                )
            ]
        return [
            KernelStep(
                name=f"partition:{level}",
                items=tasks,
                ops_per_item=workload.cost_at(level),
                divergent=True,  # data-dependent branch per comparison
                access=AccessPattern.STRIDED,  # scatter to both halves
            )
        ]


def _build(n: int) -> DCWorkload:
    return _make_workload(n, host=None)


def _make_workload(n: int, host) -> DCWorkload:
    k = ilog2(n) - ilog2(LEAF_BLOCK)
    return DCWorkload(
        name=f"quicksort[{n}]",
        level_tasks=[1 << i for i in range(k)],
        level_cost=[float(n >> i) for i in range(k)],
        leaf_tasks=n // LEAF_BLOCK,
        leaf_cost=LEAF_COST,
        total_elements=n,
        element_bytes=4,
        working_set_factor=1.5,  # near in-place: array + partition scratch
        execute=host.execute if host is not None else None,
        gpu_steps_fn=_QuicksortGpuSteps(),
        rec_a=2,
        rec_b=2,
        meta={"leaf_block": LEAF_BLOCK},
    )


def _build_host(n: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 30, size=n, dtype=np.int64).astype(np.int32)
    original = data.copy()
    host = QuicksortHost(data)
    workload = _make_workload(n, host=host)

    def verify() -> None:
        out = host.array
        if not np.all(out[:-1] <= out[1:]):
            raise VerificationError(
                f"quicksort(n={n}): output is not sorted (did the base "
                f"phase cover every leaf block?)"
            )
        if not np.array_equal(out, np.sort(original)):
            raise VerificationError(
                f"quicksort(n={n}): output is not a permutation of the "
                f"input"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="quicksort",
        title="Balanced quicksort (median split; divide-heavy)",
        recurrence="T(n) = 2·T(n/2) + n (work in the divide)",
        build=_build,
        size_label="elements",
        min_n=16,
        build_host=_build_host,
        fast_sizes=(1 << 12, 1 << 16, 1 << 20),
        full_sizes=(1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22),
        conformance_band=0.45,
        meta={"divide_heavy": True, "leaf_block": LEAF_BLOCK},
    )
)
