"""Registry adapter: radix-2 Cooley–Tukey FFT.

The balanced family's non-contiguous member: the divide interleaves
(even/odd indices) instead of halving, so the host keeps the signal in
bit-reversed order — under which the recursion's interleaved children
become contiguous half-blocks, exactly the layout the breadth-first
translation schedules.  The base phase is the identity (a size-1 DFT
is its input), and each combine level runs the butterfly pass over its
blocks; every flop therefore lives in the combine hooks, making
combine-level coverage directly observable in the output spectrum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.algorithms.fft import butterfly
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


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index array mapping natural order to bit-reversed order."""
    import numpy as np

    bits = ilog2(n)
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


class FftHost:
    """Host-side state: the spectrum-in-progress, bit-reversed layout."""

    def __init__(self, signal: np.ndarray) -> None:
        import numpy as np

        signal = np.asarray(signal, dtype=np.complex128)
        n = signal.size
        if signal.ndim != 1 or not is_power_of_two(max(n, 1)):
            raise SpecError(
                f"fft host needs a 1-D power-of-two array, got shape "
                f"{signal.shape}"
            )
        self.signal = signal
        self.n = n
        self.k = ilog2(n)
        # The divide phase in one shot: bit-reversal puts each level's
        # interleaved children into contiguous half-blocks.
        self.data = signal[bit_reversal_permutation(n)].copy()

    def execute(
        self, phase: str, level: LevelRef, offset: int, count: int
    ) -> None:
        if phase == "base" or level == LEAVES:
            return  # a size-1 DFT is its own input
        level = int(level)
        size = self.n >> level
        h = size // 2
        for j in range(offset, offset + count):
            block = self.data[j * size : (j + 1) * size]
            block[:] = butterfly(block[:h], block[h:])

    @property
    def spectrum(self) -> np.ndarray:
        """The DFT of the input signal (valid once the run completes)."""
        return self.data


class _FftGpuSteps:
    """GPU steps: uniform butterflies per level, no-op leaves."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is _FftGpuSteps

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __call__(
        self, workload: DCWorkload, level: LevelRef, tasks: int, offset: int
    ) -> List[KernelStep]:
        if level == LEAVES:
            return [
                KernelStep(
                    name="leaf-copy",
                    items=tasks,
                    ops_per_item=workload.leaf_cost,
                    divergent=False,
                    access=AccessPattern.COALESCED,
                )
            ]
        size = workload.total_elements >> int(level)
        return [
            KernelStep(
                name=f"butterfly:{level}",
                items=tasks * (size // 2),  # one item per butterfly pair
                ops_per_item=2.0,  # twiddle multiply + add/sub
                divergent=False,  # uniform control flow
                access=AccessPattern.STRIDED,  # pair elements half apart
            )
        ]


def _make_workload(n: int, host) -> DCWorkload:
    k = ilog2(n)
    return DCWorkload(
        name=f"fft[{n}]",
        level_tasks=[1 << i for i in range(k)],
        level_cost=[float(n >> i) for i in range(k)],
        leaf_tasks=n,
        leaf_cost=1.0,
        total_elements=n,
        element_bytes=16,  # complex128 samples
        working_set_factor=2.0,  # in-place pass + twiddle scratch
        execute=host.execute if host is not None else None,
        gpu_steps_fn=_FftGpuSteps(),
        rec_a=2,
        rec_b=2,
        meta={"layout": "bit-reversed"},
    )


def _build(n: int) -> DCWorkload:
    return _make_workload(n, host=None)


def _build_host(n: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    signal = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    host = FftHost(signal)
    workload = _make_workload(n, host=host)

    def verify() -> None:
        want = np.fft.fft(signal)
        if not np.allclose(host.spectrum, want, rtol=1e-7, atol=1e-7):
            raise VerificationError(
                f"fft(n={n}): spectrum differs from numpy.fft.fft (did "
                f"every butterfly level run, in order?)"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="fft",
        title="Radix-2 Cooley–Tukey FFT (interleaved divide)",
        recurrence="T(n) = 2·T(n/2) + n",
        build=_build,
        size_label="samples",
        min_n=16,
        build_host=_build_host,
        fast_sizes=(1 << 12, 1 << 16, 1 << 20),
        full_sizes=(1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20),
        conformance_band=0.30,
        meta={"combine_heavy": True},
    )
)
