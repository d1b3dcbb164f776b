"""The paper's primary contribution: generic hybrid D&C parallelization.

Subpackages
-----------
- :mod:`repro.core.spec`, :mod:`repro.core.recursive`,
  :mod:`repro.core.breadthfirst`, :mod:`repro.core.gpu_adapter` —
  Section 4's generic translation (Algorithms 1–3).
- :mod:`repro.core.recursion_tree` — level geometry of a regular D&C
  recursion (task counts, sizes, costs per level).
- :mod:`repro.core.model` — Section 5's analytical model and parameter
  optimization.
- :mod:`repro.core.schedule` — the basic and advanced work-division
  strategies plus the DES executor that runs them on an HPU.
- :mod:`repro.core.calibrate` — Section 6.4's estimation of g and γ.
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so importing one submodule does not load its siblings -- a
# model-only run never loads the executor or the auto-tuner.
_EXPORTS = {
    "DCSpec": "spec",
    "run_recursive": "recursive",
    "RecursiveRun": "recursive",
    "run_breadth_first": "breadthfirst",
    "BreadthFirstRun": "breadthfirst",
    "run_hybrid": "generic_host",
    "GenericDCHost": "generic_host",
    "AutoTuner": "autotune",
    "TunedPoint": "autotune",
    "make_level_kernel": "gpu_adapter",
    "RecursionTree": "recursion_tree",
    "LevelInfo": "recursion_tree",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
