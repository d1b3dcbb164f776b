"""Divide-and-conquer algorithms expressed through the generic framework.

:mod:`repro.algorithms.mergesort` is the paper's case study (Section 6).
:mod:`repro.algorithms.dc_sum` is the paper's running example
(Algorithms 4–5).  The remaining modules demonstrate the genericity
claim on algorithms the paper does not evaluate: Karatsuba polynomial
multiplication, Strassen matrix multiplication, closest pair of points,
and maximum subarray.
"""

import importlib

__all__ = ["dc_sum", "mergesort"]


def __getattr__(name):
    # Submodules load on first attribute access (PEP 562): importing one
    # algorithm does not load the others (fig9 needs only the mergesort
    # kernels, not the schedule layer the hybrid sorts pull in).
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
