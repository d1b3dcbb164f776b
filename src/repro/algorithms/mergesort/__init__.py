"""Mergesort — the paper's case study (Section 6).

- :mod:`repro.algorithms.mergesort.merges` — merge primitives: scalar
  two-pointer reference, vectorized binary-search merge, whole-level
  pair merging.
- :mod:`repro.algorithms.mergesort.recursive` — Algorithm 6.
- :mod:`repro.algorithms.mergesort.breadth_first` — Algorithm 7.
- :mod:`repro.algorithms.mergesort.kernels` — the simulated OpenCL
  kernels: per-sublist merge (divergent), §6.3 coalescing permutation,
  and the fully-parallel binary-search merge of Fig. 9.
- :mod:`repro.algorithms.mergesort.hybrid` — Algorithm 8: workload
  construction and the one-call hybrid sorts.
- :mod:`repro.algorithms.mergesort.parallel_merge` — the GPU-only
  parallel-merge mergesort the paper compares against (Fig. 9).
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so importing one submodule does not load its siblings -- the
# Fig. 9 kernels do not need the hybrid sorts' schedule layer.
_EXPORTS = {
    "mergesort_bf": "breadth_first",
    "MergesortHost": "hybrid",
    "hybrid_mergesort": "hybrid",
    "make_mergesort_workload": "hybrid",
    "merge_binary_search": "merges",
    "merge_pairs_level": "merges",
    "merge_two_pointer": "merges",
    "ParallelGPUResult": "parallel_merge",
    "parallel_gpu_mergesort": "parallel_merge",
    "mergesort_recursive": "recursive",
    "mergesort_spec": "recursive",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
