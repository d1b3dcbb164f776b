"""Simulated OpenCL-like GPU layer.

Models the platform/device/kernel/queue concepts of Section 3.1 of the
paper with a calibrated *cost model* instead of silicon: kernels execute
functionally (vectorized NumPy, or one work-item at a time through the
reference executor) while simulated time is charged according to the
device's throughput model.

Key modelling decisions (see DESIGN.md §2):

- A device has ``g`` *empirical* cores of relative scalar rate ``gamma``
  (the paper's normalization: a CPU core has rate 1).
- A single divergent work-item runs at rate ``gamma`` — this is what the
  paper's γ-calibration measures (Fig. 6).
- Saturated *regular* kernels hide memory latency; they earn a
  ``lane_efficiency`` factor > 1 that interpolates from 1 (one thread)
  to its full value (``>= g`` threads).  This reconciles the paper's
  γ·g hybrid throughput with the 18–20× of its fully-parallel GPU
  mergesort (Fig. 9).
- Strided (non-coalesced) global memory access multiplies cost by the
  device's ``strided_penalty`` (§6.3's motivation for the permutation
  optimization).
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so importing one submodule does not load its siblings -- the
# timing path needs the cost model, not the command queue.
_EXPORTS = {
    "GPUDevice": "device",
    "GPUDeviceSpec": "device",
    "AccessPattern": "kernel",
    "Kernel": "kernel",
    "NDRange": "kernel",
    "Buffer": "memory",
    "MemoryRegion": "memory",
    "Platform": "platform",
    "CommandQueue": "queue",
    "run_reference": "reference",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
