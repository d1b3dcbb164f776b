"""The unpruned auto-tuner search, owned by the tests.

A plain loop over :meth:`AutoTuner.evaluate` with the strict ``>``
update and the coarse/refine steps of :meth:`AutoTuner.tune_adaptive`,
but no skip test: every admissible point it visits runs.  The tuner's
pruned searches must select what this selects, and the conformance
pins measure the model on the population it runs, which does not
depend on how well the tuner prunes.
"""

import contextlib

import pytest

from repro.core.autotune import AutoTuner, TunedPoint
from repro.errors import ScheduleError


def reference_tune(
    tuner, alphas=None, levels=None, include_cpu_fallback=True
):
    """:meth:`AutoTuner.tune`, evaluating every grid point."""
    alphas = tuner.default_alphas() if alphas is None else alphas
    levels = tuner.default_levels() if levels is None else levels
    runs_before = tuner.executor_runs
    best = None
    best_point = (None, None)
    if include_cpu_fallback:
        best = tuner.evaluate_cpu_fallback()
    for level in levels:
        for alpha in alphas:
            try:
                result = tuner.evaluate(float(alpha), int(level))
            except ScheduleError:
                continue
            if best is None or result.speedup > best.speedup:
                best = result
                best_point = (float(alpha), int(level))
    if best is None:
        raise ScheduleError("auto-tuning found no admissible operating point")
    return TunedPoint(
        best.speedup, *best_point, best, tuner.executor_runs - runs_before
    )


def reference_tune_adaptive(
    tuner, alphas=None, levels=None, include_cpu_fallback=True, coarse=3
):
    """:meth:`AutoTuner.tune_adaptive` over :func:`reference_tune`."""
    alphas = tuner.default_alphas() if alphas is None else alphas
    levels = tuner.default_levels() if levels is None else levels
    alphas = [float(a) for a in alphas]
    levels = [int(y) for y in levels]
    if coarse < 2 or len(alphas) * len(levels) <= coarse**2:
        return reference_tune(tuner, alphas, levels, include_cpu_fallback)
    runs_before = tuner.executor_runs
    try:
        best = reference_tune(
            tuner, alphas[::coarse], levels[::coarse], include_cpu_fallback
        )
    except ScheduleError:
        return reference_tune(tuner, alphas, levels, include_cpu_fallback)
    if best.used_gpu:
        ai = min(range(len(alphas)), key=lambda i: abs(alphas[i] - best.alpha))
        yi = min(
            range(len(levels)),
            key=lambda i: abs(levels[i] - best.transfer_level),
        )
        try:
            refined = reference_tune(
                tuner,
                alphas[max(0, ai - coarse + 1) : ai + coarse],
                levels[max(0, yi - coarse + 1) : yi + coarse],
                include_cpu_fallback=False,
            )
        except ScheduleError:
            refined = best
        if refined.speedup > best.speedup:
            best = refined
    return TunedPoint(
        best.speedup,
        best.alpha,
        best.transfer_level,
        best.result,
        tuner.executor_runs - runs_before,
    )


@contextlib.contextmanager
def unpruned_tuners():
    """Route every :class:`AutoTuner` search through the reference
    search while the block runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AutoTuner, "tune", reference_tune)
        patch.setattr(AutoTuner, "tune_adaptive", reference_tune_adaptive)
        yield
