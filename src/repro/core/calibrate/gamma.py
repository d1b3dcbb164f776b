"""Estimating γ: the single-thread merge ratio (Fig. 6).

A one-thread merge of two sorted runs executes on both the GPU (one
work-item doing the whole two-pointer merge — the worst possible use of
the device, which is the point) and one CPU core.  The time ratio is
``γ⁻¹`` and stays roughly constant across input sizes (Fig. 6); the
estimate is the median ratio over a size sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cpu.device import CPUDevice
from repro.errors import CalibrationError
from repro.opencl.device import GPUDevice
from repro.opencl.kernel import AccessPattern, Kernel, NDRange
from repro.util.rng import NO_NOISE, NoiseModel


def single_thread_merge_kernel(total: int) -> Kernel:
    """One work-item merging two runs of ``total/2`` elements each."""
    return Kernel(
        name=f"merge-1thread[{total}]",
        ops_per_item=lambda args: float(total),
        vector_fn=lambda n, args: None,  # timing probe only
        divergent=True,  # two-pointer merge: dependent, branchy
        access=AccessPattern.COALESCED,
    )


@dataclass(frozen=True)
class GammaEstimate:
    """Result of the γ sweep."""

    gamma_inverse_estimate: float
    samples: Tuple[Tuple[int, float], ...]  # (size, gpu/cpu ratio) — Fig. 6

    @property
    def gamma_estimate(self) -> float:
        return 1.0 / self.gamma_inverse_estimate

    def as_rows(self) -> List[List[float]]:
        return [[size, ratio] for size, ratio in self.samples]


def estimate_gamma(
    gpu: GPUDevice,
    cpu: CPUDevice,
    sizes: Sequence[int] = tuple(1 << e for e in range(16, 25)),
    noise: NoiseModel = NO_NOISE,
) -> GammaEstimate:
    """Measure the 1-thread merge on both devices across ``sizes``."""
    if not sizes:
        raise CalibrationError("need at least one probe size")
    sizes = [int(size) for size in sizes]
    for size in sizes:
        if size < 2:
            raise CalibrationError(f"probe size must be >= 2, got {size!r}")
    samples: List[Tuple[int, float]] = []
    for size in sizes:
        kernel = single_thread_merge_kernel(size)
        gpu_time = gpu.time_for(kernel, NDRange(1, 1), {})
        cpu_time = cpu.task_time(float(size))
        samples.append(
            (size, noise.apply(gpu_time / cpu_time, "gamma-sweep", size))
        )
    estimate = float(np.median([ratio for _, ratio in samples]))
    return GammaEstimate(
        gamma_inverse_estimate=estimate, samples=tuple(samples)
    )
