"""The simulated GPU device."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DeviceError
from repro.opencl.costmodel import (
    GPUCostParameters,
    kernel_launch_time,
    transfer_time,
)
from repro.opencl.kernel import Kernel, NDRange
from repro.opencl.memory import Buffer, DeviceMemory
from repro.sim.trace import BusyTrace
from repro.util.ambient import resilience_session

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class GPUDeviceSpec:
    """Static description of a GPU device.

    ``g`` and ``gamma`` are the paper's empirical parameters (Table 2),
    not physical PE counts; ``compute_units``/``pe_per_unit`` describe
    the physical layout reported by the vendor (Table 1) and only matter
    for introspection.  Transfer parameters model the host link
    (``λ + δ·w``, §3.2).
    """

    name: str
    g: int
    gamma: float
    compute_units: int = 16
    pe_per_unit: int = 64
    memory_bytes: int = 1 << 30
    lane_efficiency: float = 1.0
    strided_penalty: float = 4.0
    launch_overhead: float = 0.0
    transfer_latency: float = 0.0  # λ, in ops
    transfer_per_word: float = 0.0  # δ, in ops per word
    preferred_workgroup: int = 64

    def cost_parameters(self) -> GPUCostParameters:
        """The subset of the spec consumed by the timing model."""
        return GPUCostParameters(
            g=self.g,
            gamma=self.gamma,
            lane_efficiency=self.lane_efficiency,
            strided_penalty=self.strided_penalty,
            launch_overhead=self.launch_overhead,
        )


class GPUDevice:
    """A simulated GPU: memory ledger, busy trace, kernel execution.

    ``launch`` runs a kernel *functionally* (the arrays really change)
    and returns the simulated duration; callers integrate the duration
    into a timeline either directly (calibration sweeps) or through a
    :class:`~repro.opencl.queue.CommandQueue` attached to a simulator.
    """

    def __init__(self, spec: GPUDeviceSpec) -> None:
        self.spec = spec
        self.memory = DeviceMemory(spec.memory_bytes, spec.name)
        self.trace = BusyTrace(spec.name)
        self._params = spec.cost_parameters()
        self.kernels_launched = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPUDevice {self.spec.name!r} g={self.spec.g}>"

    # -- memory -------------------------------------------------------
    def alloc(self, nbytes: int, dtype="int64", name: str = "") -> Buffer:
        """Allocate a global-memory buffer on this device."""
        return self.memory.alloc(nbytes, dtype=dtype, name=name)

    def alloc_like(self, array: np.ndarray, name: str = "") -> Buffer:
        """Allocate a buffer shaped for ``array`` (1-D)."""
        if array.ndim != 1:
            raise DeviceError(
                f"device buffers are 1-D; got array with shape {array.shape}"
            )
        return self.alloc(array.nbytes, dtype=array.dtype, name=name)

    def free(self, buf: Buffer) -> None:
        """Free a buffer previously allocated on this device."""
        self.memory.free(buf)

    # -- execution ----------------------------------------------------
    def time_for(self, kernel: Kernel, ndrange: NDRange, args) -> float:
        """Predicted duration of a launch, without executing it."""
        return kernel_launch_time(self._params, kernel, ndrange, args)

    def launch(self, kernel: Kernel, ndrange: NDRange, args) -> float:
        """Execute ``kernel`` functionally; return the simulated duration.

        When a :mod:`repro.resilience` session has lost the GPU, the
        launch raises :class:`~repro.errors.DeviceLostError` before
        touching any data — a dead device runs nothing.
        """
        session = resilience_session()
        if session is not None and not session.ambient_injector.device_alive(
            "gpu"
        ):
            from repro.errors import DeviceLostError

            raise DeviceLostError(
                f"cannot launch {kernel.name!r}: device {self.spec.name!r} "
                f"was lost"
            )
        duration = self.time_for(kernel, ndrange, args)
        kernel.execute(ndrange, args)
        self.kernels_launched += 1
        return duration

    # -- transfers ----------------------------------------------------
    def transfer_time(self, words: int) -> float:
        """Host↔device transfer duration for ``words`` machine words."""
        return transfer_time(
            self.spec.transfer_latency, self.spec.transfer_per_word, words
        )

    def default_ndrange(self, global_size: int) -> NDRange:
        """An NDRange with the device's preferred work-group size."""
        local = min(self.spec.preferred_workgroup, global_size)
        return NDRange(global_size=global_size, local_size=local)


def saturated_throughput(spec: GPUDeviceSpec, regular: bool = False) -> float:
    """Aggregate ops/time at full occupancy, in CPU-core equivalents.

    For divergent kernels this is the paper's ``γ·g``; regular kernels
    additionally earn the lane-efficiency factor.
    """
    base = spec.g * spec.gamma
    return base * spec.lane_efficiency if regular else base
