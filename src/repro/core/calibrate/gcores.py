"""Estimating g: the elementwise-sum saturation sweep (Fig. 5).

An elementwise sum of two arrays is launched with an increasing number
of threads, each thread handling a consecutive chunk.  Running time
falls roughly as ``1/t`` while the device still has idle capacity and
flattens once it saturates; ``g`` is read off as the knee of the curve
— "the value after which no improvement in performance was detected"
(§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.opencl.device import GPUDevice
from repro.opencl.kernel import AccessPattern, Kernel, NDRange
from repro.util.rng import NO_NOISE, NoiseModel


def elementwise_sum_kernel(chunk: int) -> Kernel:
    """``c[i] = a[i] + b[i]`` over a chunk of ``chunk`` elements per
    thread — the §6.4 probe program (regular, coalesced: consecutive
    threads touch consecutive segments)."""
    return Kernel(
        name=f"eltwise-sum[chunk={chunk}]",
        ops_per_item=lambda args: 2.0 * chunk,  # two loads+add per element
        vector_fn=lambda n, args: None,  # timing probe only
        divergent=False,
        access=AccessPattern.COALESCED,
    )


@dataclass(frozen=True)
class GEstimate:
    """Result of the saturation sweep."""

    g_estimate: int
    samples: Tuple[Tuple[int, float], ...]  # (threads, time) — Fig. 5 series

    def as_rows(self) -> List[List[float]]:
        return [[t, time] for t, time in self.samples]


def estimate_g(
    device: GPUDevice,
    array_size: int = 1 << 24,
    max_threads: int | None = None,
    num_points: int = 64,
    flat_tolerance: float = 0.04,
    noise: NoiseModel = NO_NOISE,
) -> GEstimate:
    """Run the thread sweep on ``device`` and locate the knee.

    The sweep covers ``[1, max_threads]`` (default ``2.5 · g`` so the
    flat region is visible, as in Fig. 5) on a geometric grid.  The
    flat level is taken as the *median* time of the top quarter of the
    thread range (robust to per-sample measurement jitter); the
    estimate is the smallest sampled thread count within
    ``flat_tolerance`` of it.
    """
    if array_size < 1:
        raise CalibrationError(f"array_size must be >= 1, got {array_size!r}")
    if max_threads is None:
        max_threads = int(2.5 * device.spec.g)
    if max_threads < 2:
        raise CalibrationError(f"max_threads must be >= 2, got {max_threads!r}")

    grid = [
        int(t)
        for t in np.unique(
            np.geomspace(1, max_threads, num=num_points).astype(int)
        )
    ]
    samples: List[Tuple[int, float]] = []
    for threads in grid:
        chunk = max(1, array_size // threads)
        kernel = elementwise_sum_kernel(chunk)
        ndrange = NDRange(threads, min(64, threads))
        time = device.time_for(kernel, ndrange, {})
        samples.append((threads, noise.apply(time, "g-sweep", threads)))

    flat_threshold = max_threads / 4 * 3  # top quarter of the range
    flat_times = [t for thr, t in samples if thr >= flat_threshold]
    if not flat_times:
        flat_times = [samples[-1][1]]
    flat_level = float(np.median(flat_times))
    for threads, time in samples:
        if time <= flat_level * (1.0 + flat_tolerance):
            return GEstimate(g_estimate=threads, samples=tuple(samples))
    raise CalibrationError(
        "saturation sweep never flattened; is max_threads too small?"
    )  # pragma: no cover - the flat samples satisfy the bound
