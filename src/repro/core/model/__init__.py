"""The analytical performance model of Section 5.

Two backends implement the same quantities:

- :mod:`repro.core.model.advanced` — the primary *numeric* backend:
  exact level-by-level sums with continuous interpolation between
  levels, valid for any cost function ``f``.  The paper's three
  saturation cases (§5.2.1) emerge from the per-level saturation test
  instead of being enumerated by hand.
- :mod:`repro.core.model.closedform` — the paper's closed formulas for
  the balanced family ``f(n) = Θ(n^{log_b a})`` (§5.2.2, mergesort).
  Used to cross-validate the numeric backend in tests.

:mod:`repro.core.model.levels` covers the basic strategy's per-level
analysis (§5.1); :mod:`repro.core.model.prediction` converts an
optimized ``(α, y)`` into the predicted hybrid speedup (the green lines
of Fig. 8); :mod:`repro.core.model.master` classifies recurrences by
the master theorem.
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562): a run that prices the advanced model never loads the
# conformance oracle (traced runs only), the closed forms or the
# master-theorem classifier.
_EXPORTS = {
    "AdvancedModel": "advanced",
    "AdvancedSolution": "advanced",
    "ClosedFormModel": "closedform",
    "ModelContext": "context",
    "basic_crossover_level": "levels",
    "level_time_cpu": "levels",
    "level_time_gpu": "levels",
    "MasterCase": "master",
    "classify_recurrence": "master",
    "ConformanceReport": "oracle",
    "DEFAULT_RESIDUAL_BAND": "oracle",
    "OPTIMISM_TOLERANCE": "oracle",
    "advanced_report": "oracle",
    "basic_report": "oracle",
    "conformance_from_attrs": "oracle",
    "conformance_summary": "oracle",
    "conformance_verdict": "oracle",
    "predict_basic_time": "oracle",
    "predict_hybrid_speedup": "prediction",
    "predict_hybrid_time": "prediction",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
