"""Algorithm 8: the hybrid mergesorts, wired to the schedulers.

:class:`MergesortHost` owns the host array and provides the functional
hook the schedule executor calls; :func:`make_mergesort_workload` builds
the :class:`~repro.core.schedule.workload.DCWorkload` with mergesort's
optimized GPU steps (§6.3: a coalescing permutation bracketing each
run of divergent per-sublist merges); :func:`hybrid_mergesort` is the
one-call public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.mergesort.merges import merge_pairs_level
from repro.algorithms.mergesort.recursive import require_power_of_two
from repro.core.schedule.advanced import AdvancedSchedule
from repro.core.schedule.basic import BasicSchedule
from repro.core.schedule.executor import HybridRunResult, ScheduleExecutor
from repro.core.schedule.workload import (
    LEAVES,
    DCWorkload,
    KernelStep,
    LevelRef,
)
from repro.errors import ScheduleError, SpecError
from repro.hpu.hpu import HPU
from repro.opencl.kernel import AccessPattern
from repro.util.intmath import ilog2
from repro.util.rng import NO_NOISE, NoiseModel


@dataclass
class MergesortHost:
    """Host-side state for one hybrid mergesort run.

    ``leaf_block > 1`` enables the §7 sequential-tail extension: leaves
    are ``leaf_block``-element runs sorted directly instead of built up
    through the bottom ``log2(leaf_block)`` merge levels.
    """

    array: np.ndarray
    strict: bool = False
    leaf_block: int = 1

    def __post_init__(self) -> None:
        if self.array.ndim != 1:
            raise SpecError(
                f"mergesort expects a 1-D array, got shape {self.array.shape}"
            )
        require_power_of_two(max(self.array.size, 1))
        require_power_of_two(self.leaf_block)
        if self.leaf_block >= max(self.array.size, 2):
            raise SpecError(
                f"leaf_block {self.leaf_block} must be smaller than the "
                f"array ({self.array.size})"
            )
        self.k = ilog2(self.array.size) - ilog2(self.leaf_block)

    def execute(self, phase: str, level: LevelRef, offset: int, count: int) -> None:
        """Functional hook: run ``count`` tasks of one level on the array.

        Internal level ``i`` (from the top) merges pairs into runs of
        ``n / 2^i`` elements; the leaf phase sorts ``leaf_block``-sized
        runs directly (a no-op for the default block of one).
        """
        if phase == "base" or level == LEAVES:
            if self.leaf_block > 1:
                lo = offset * self.leaf_block
                hi = (offset + count) * self.leaf_block
                self.array[lo:hi].reshape(count, self.leaf_block).sort(axis=1)
            return
        size = self.array.size >> int(level)  # n / 2^level
        lo, hi = offset * size, (offset + count) * size
        merge_pairs_level(self.array[lo:hi], size, strict=self.strict)


class _MergesortGpuSteps:
    """The §6-shaped GPU step expansion for one level.

    With the §6.3 optimization each GPU level costs a forward
    permutation (regular, coalesced), the divergent per-pair merges on
    the permuted (hence coalesced) layout, and an inverse permutation.
    Without it, the merges pay strided global accesses instead.

    A module-level class (rather than a closure over ``coalesce``) so
    workloads pickle and compare by value.
    """

    __slots__ = ("coalesce",)

    def __init__(self, coalesce: bool) -> None:
        self.coalesce = coalesce

    def __eq__(self, other) -> bool:
        return (
            type(other) is _MergesortGpuSteps
            and other.coalesce == self.coalesce
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coalesce))

    def __call__(
        self, workload: DCWorkload, level: LevelRef, tasks: int, offset: int
    ) -> List[KernelStep]:
        coalesce = self.coalesce
        if level == LEAVES:
            # unit leaves are a no-op pass; block leaves (§7 extension)
            # are per-thread sequential sorts, hence divergent
            return [
                KernelStep(
                    name="leaf-sort" if workload.leaf_cost > 1.0 else "leaf-noop",
                    items=tasks,
                    ops_per_item=workload.leaf_cost,
                    divergent=workload.leaf_cost > 1.0,
                    access=AccessPattern.COALESCED,
                )
            ]
        size = workload.total_elements // workload.tasks_at(level)
        elements = tasks * size
        merge = KernelStep(
            name=f"merge:{level}",
            items=tasks,
            ops_per_item=float(size),
            divergent=True,
            access=AccessPattern.COALESCED if coalesce else AccessPattern.STRIDED,
        )
        if not coalesce:
            return [merge]
        permute = KernelStep(
            name=f"permute:{level}",
            items=elements,
            ops_per_item=2.0,
            divergent=False,
            access=AccessPattern.COALESCED,
        )
        unpermute = KernelStep(
            name=f"unpermute:{level}",
            items=elements,
            ops_per_item=2.0,
            divergent=False,
            access=AccessPattern.COALESCED,
        )
        return [permute, merge, unpermute]


def _mergesort_gpu_steps(coalesce: bool) -> _MergesortGpuSteps:
    """Kept for callers of the old factory name."""
    return _MergesortGpuSteps(coalesce)


def _mergesort_parallel_steps(
    workload: DCWorkload, level: LevelRef, tasks: int, offset: int
) -> List[KernelStep]:
    """§7 parallel kernels: the binary-search merge, one item/element.

    Same kernel family as the Fig. 9 GPU-only comparator: each element
    finds its output rank independently (``log2(size/2) + 1`` uniform
    ops), so a handful of big merges still saturates the device.
    """
    if level == LEAVES:
        raise ScheduleError("parallel kernels apply to merge levels only")
    size = workload.total_elements // workload.tasks_at(level)
    return [
        KernelStep(
            name=f"bsmerge:{level}",
            items=tasks * size,
            ops_per_item=math.log2(max(size // 2, 2)) + 1.0,
            divergent=False,
            access=AccessPattern.COALESCED,
        )
    ]


def make_mergesort_workload(
    n: int,
    host: Optional[MergesortHost] = None,
    coalesce: bool = True,
    element_bytes: int = 4,
    leaf_block: int = 1,
) -> DCWorkload:
    """The mergesort workload for ``n = 2^k`` elements.

    ``host=None`` gives a timing-only workload (used by the large-``n``
    experiment sweeps); with a host, runs really sort its array.
    ``leaf_block=S`` enables the §7 sequential tail: the bottom
    ``log2 S`` levels collapse into a leaf batch of ``n/S`` runs, each
    costing ``S(log2 S + 1)`` ops — identical work, far fewer launches.
    """
    require_power_of_two(max(n, 1))
    require_power_of_two(max(leaf_block, 1))
    if n < 4:
        raise ScheduleError(f"hybrid mergesort needs n >= 4, got {n}")
    if not 1 <= leaf_block <= n // 4:
        raise ScheduleError(
            f"leaf_block must be in [1, n/4] to keep at least two merge "
            f"levels, got {leaf_block} for n={n}"
        )
    if host is not None and host.leaf_block != leaf_block:
        raise ScheduleError(
            f"host leaf_block {host.leaf_block} != workload leaf_block "
            f"{leaf_block}"
        )
    k = ilog2(n) - ilog2(leaf_block)
    leaf_cost = (
        1.0
        if leaf_block == 1
        else float(leaf_block) * (ilog2(leaf_block) + 1.0)
    )
    return DCWorkload(
        name="mergesort" if leaf_block == 1 else f"mergesort[S={leaf_block}]",
        level_tasks=[1 << i for i in range(k)],
        level_cost=[float(n >> i) for i in range(k)],
        leaf_tasks=n // leaf_block,
        leaf_cost=leaf_cost,
        total_elements=n,
        element_bytes=element_bytes,
        working_set_factor=2.0,  # paper: space ≈ 2n · sizeof(int)
        execute=host.execute if host is not None else None,
        gpu_steps_fn=_mergesort_gpu_steps(coalesce),
        gpu_parallel_steps_fn=_mergesort_parallel_steps,
        rec_a=2,
        rec_b=2,
        meta={"coalesce": coalesce, "leaf_block": leaf_block},
    )


def hybrid_mergesort(
    array: np.ndarray,
    hpu: HPU,
    strategy: str = "advanced",
    alpha: Optional[float] = None,
    transfer_level: Optional[int] = None,
    coalesce: bool = True,
    strict: bool = False,
    leaf_block: int = 1,
    noise: NoiseModel = NO_NOISE,
) -> Tuple[np.ndarray, HybridRunResult]:
    """Sort ``array`` on a simulated HPU; return (sorted, run result).

    ``strategy`` is ``"advanced"`` (Algorithm 8, default), ``"basic"``
    (§5.1), ``"cpu"`` (multicore only) or ``"parallel-tail"`` (the §7
    extension: the GPU finishes its partition with binary-search merge
    kernels).  ``alpha``/``transfer_level`` override the model's
    optimum; ``leaf_block`` enables the §7 sequential tail.
    """
    host = MergesortHost(np.array(array), strict=strict, leaf_block=leaf_block)
    workload = make_mergesort_workload(
        host.array.size, host=host, coalesce=coalesce, leaf_block=leaf_block
    )
    executor = ScheduleExecutor(hpu, workload, noise=noise)
    if strategy in ("advanced", "parallel-tail"):
        plan = AdvancedSchedule().plan(
            workload,
            hpu.parameters,
            alpha=alpha,
            transfer_level=transfer_level,
        )
        if strategy == "parallel-tail":
            from repro.core.schedule.extensions import plan_parallel_tail

            extended = plan_parallel_tail(plan, workload, hpu.parameters)
            result = executor.run_advanced_parallel_tail(extended)
        else:
            result = executor.run_advanced(plan)
    elif strategy == "basic":
        result = executor.run_basic(BasicSchedule().plan(workload, hpu.parameters))
    elif strategy == "cpu":
        result = executor.run_cpu_only()
    else:
        raise ScheduleError(
            f"unknown strategy {strategy!r}; expected 'advanced', 'basic', "
            f"'cpu' or 'parallel-tail'"
        )
    return host.array, result
