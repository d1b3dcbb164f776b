"""Discrete-event simulation (DES) kernel.

This package is the timing substrate of the simulated Hybrid Processing
Unit: a simulated clock, an event queue, generator-based processes,
counted resources (used for CPU core pools) and busy-interval traces
(used to measure device utilization and CPU/GPU overlap).

The engine is deliberately small but complete: processes are Python
generators that ``yield`` waitables (:class:`Timeout`, :class:`Signal`,
other processes, or :class:`AllOf` combinations), and resources grant
requests in FIFO order.  All times are floats in *simulated ops*
(1.0 == one CPU-core scalar operation, the paper's ``gamma_c = 1``
normalization).
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562): the closed-form replay needs only the busy-interval helpers
# of ``repro.sim.trace``, so a process that never runs the DES never
# loads the engine, its processes, resources or team batches.
_EXPORTS = {
    "Simulator": "engine",
    "EventQueue": "events",
    "AllOf": "process",
    "Process": "process",
    "Timeout": "process",
    "Resource": "resources",
    "Signal": "signals",
    "TeamBatch": "batch",
    "BusyTrace": "trace",
    "merge_intervals": "trace",
    "overlap_length": "trace",
    "time_at_concurrency": "trace",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

