"""Generic D&C workload registry (see docs/WORKLOADS.md).

The registry lists the built-in entries — mergesort (the reference),
quicksort, closest pair, Strassen, FFT and classical matmul — from the
start, and imports each one's adapter (and its ``repro.algorithms``
module) on the entry's first lookup, so a run that sweeps one workload
loads one adapter.  This package re-exports the registry API.
Downstream consumers (``figw``, the serve protocol, the autotuner
cache) address workloads by their registered id and never import
adapters directly.
"""

from __future__ import annotations

from repro.workloads.registry import (
    DEFAULT_WORKLOAD,
    HostRun,
    VerificationError,
    WorkloadEntry,
    WorkloadError,
    entries,
    get,
    is_registered,
    register,
    unregister,
    workload_ids,
)
from repro.workloads.synthetic import CoverageRecorder, make_synthetic_workload

__all__ = [
    "DEFAULT_WORKLOAD",
    "HostRun",
    "VerificationError",
    "WorkloadEntry",
    "WorkloadError",
    "CoverageRecorder",
    "entries",
    "get",
    "is_registered",
    "make_synthetic_workload",
    "register",
    "unregister",
    "workload_ids",
]
