"""The GPU-only mergesort with fully parallel merges (Fig. 9).

The paper's comparison point: keep the breadth-first level structure
but merge with one work-item *per element* performing a binary search
for its output rank.  Much more raw work than a two-pointer merge
(``Θ(n log n)`` extra binary-search steps in total) but embarrassingly
parallel and regular, so the saturated GPU sustains it at its
latency-hidden throughput — which is how the paper reaches 18–20×
sort-only over one CPU core, dropping to ≈12× once the two transfers
are charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.algorithms.mergesort.kernels import binary_search_merge_kernel
from repro.algorithms.mergesort.recursive import require_power_of_two
from repro.hpu.hpu import HPU
from repro.opencl.device import GPUDevice
from repro.util.intmath import ilog2

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class ParallelGPUResult:
    """Timing breakdown of one GPU-only parallel-merge sort."""

    n: int
    sort_time: float  # kernel time only (Fig. 9 red)
    transfer_time: float  # both directions
    sequential_ops: float  # 1-core recursive baseline

    @property
    def total_time(self) -> float:
        """Sort plus transfers (Fig. 9 green)."""
        return self.sort_time + self.transfer_time

    @property
    def speedup_sort_only(self) -> float:
        return self.sequential_ops / self.sort_time

    @property
    def speedup_with_transfer(self) -> float:
        return self.sequential_ops / self.total_time


def parallel_gpu_mergesort(
    hpu: HPU,
    n: int,
    array: Optional[np.ndarray] = None,
) -> ParallelGPUResult:
    """Run (or time) the GPU-only parallel-merge mergesort.

    With ``array`` given it is really sorted in place (functional +
    timed); with ``array=None`` only the timing model runs, allowing
    the paper's full 2^24-element sweep at negligible cost.
    """
    require_power_of_two(max(n, 1))
    k = ilog2(n)
    device = GPUDevice(hpu.gpu_spec)
    if array is not None and array.size != n:
        raise ValueError(f"array has {array.size} elements, expected {n}")

    sort_time = 0.0
    for level in range(k):  # bottom-up: runs of size 2, 4, ..., n
        size = 2 << level
        kernel = binary_search_merge_kernel(array, size)
        ndrange = device.default_ndrange(n)  # one item per element
        if array is not None:
            sort_time += device.launch(kernel, ndrange, {"offset": 0})
        else:
            sort_time += device.time_for(kernel, ndrange, {"offset": 0})

    transfer = 2.0 * hpu.transfer_time(n)  # in and out
    sequential = n * (k + 1.0)  # n (log2 n + 1), the recursive baseline
    return ParallelGPUResult(
        n=n,
        sort_time=sort_time,
        transfer_time=transfer,
        sequential_ops=sequential,
    )
