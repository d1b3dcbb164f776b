"""Shared experiment infrastructure."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.result import ExperimentResult  # noqa: F401 (re-export)
from repro.util.ambient import active_tracer, resilience_session
from repro.util.grids import arange, round_all
from repro.util.rng import NO_NOISE, NoiseModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.schedule.executor import HybridRunResult
    from repro.hpu.hpu import HPU

#: Default measurement jitter for "measured" series — mirrors the
#: paper's plot scatter; deterministic per (platform, config) key.
MEASUREMENT_NOISE = NoiseModel(amplitude=0.015)


def fmt_ratio(value: Optional[float], digits: int = 3) -> str:
    """Render a ratio/parameter cell as one consistent (string) type.

    Table cells that mix floats with sentinel strings (``"inf"`` for a
    zero denominator, ``None`` for "not applicable") break downstream
    consumers that expect a single column type.  This renders every
    case to a string — finite values exactly as ``str(round(v, digits))``
    would, so the printed tables are unchanged and ``float(cell)`` still
    works for every non-``None`` cell.
    """
    if value is None:
        return "-"
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return str(round(value, digits))


@dataclass(frozen=True)
class BestPoint:
    """Best measured operating point of a (platform, n) sweep."""

    speedup: float
    alpha: Optional[float]  # None = CPU-only fallback won
    transfer_level: Optional[int]
    result: HybridRunResult


#: Tuners (and with them executors and evaluation caches) shared across
#: sweep points and experiments: Fig. 10 re-searches the same
#: (platform, n) grids Fig. 8 already ran, so in a full-runner
#: invocation its sweeps are nearly free.  Keyed by values only —
#: NoiseModel is frozen, the workload by its registry id — so
#: identical sweeps always coincide.
_TUNERS: Dict[tuple, object] = {}

#: The memo of the traced or resilient run in progress, as (weak ref to
#: its tracer or None, weak ref to its resilience session or None,
#: memo).  A traced run records only the executor runs its tuners
#: actually spend, and a run under a fault plan must meet its faults,
#: so sharing :data:`_TUNERS` would make its trace, metrics,
#: conformance or recovery depend on what the process ran before.  Each
#: (tracer, session) pair gets a fresh memo instead — what a cold
#: process sees — which still spans the whole run (Fig. 10 after Fig. 8
#: in one invocation).
_SCOPED_TUNERS: Tuple[
    Optional[weakref.ref], Optional[weakref.ref], Dict[tuple, object]
] = (None, None, {})


def _is(ref: Optional[weakref.ref], obj) -> bool:
    return obj is None if ref is None else ref() is obj


def _tuner_memo(tracer, session) -> Dict[tuple, object]:
    global _SCOPED_TUNERS
    if tracer is None and session is None:
        return _TUNERS
    tracer_ref, session_ref, memo = _SCOPED_TUNERS
    if not (_is(tracer_ref, tracer) and _is(session_ref, session)):
        memo = {}
        _SCOPED_TUNERS = (
            None if tracer is None else weakref.ref(tracer),
            None if session is None else weakref.ref(session),
            memo,
        )
    return memo


def _tuner_for(
    hpu: HPU, n: int, noise: NoiseModel, workload: str = "mergesort"
):
    from repro.core.autotune import AutoTuner
    from repro.workloads import get as get_workload

    memo = _tuner_memo(active_tracer(), resilience_session())
    key = (hpu.name, workload, n, noise)
    tuner = memo.get(key)
    if tuner is None:
        memo[key] = tuner = AutoTuner(
            hpu, get_workload(workload).workload(n), noise=noise
        )
    return tuner


def seed_tuner_state(state) -> None:
    """No-op.  Each serve pool worker keeps its own exact ``_TUNERS``
    memo, so no tuner state crosses the process boundary; the name
    stays only because ``userbench/ubench/spans.py`` wraps it."""


def sweep_best_operating_point(
    hpu: HPU,
    n: int,
    alphas: Sequence[float],
    levels: Optional[Sequence[int]] = None,
    noise: NoiseModel = NO_NOISE,
    include_cpu_fallback: bool = True,
    adaptive: bool = False,
    workload: str = "mergesort",
) -> BestPoint:
    """Grid-search (α, y) for the best measured advanced-hybrid speedup.

    This is the paper's experimental procedure behind Figs. 8 and 10:
    run the implementation across transfer ratios and levels, keep the
    fastest.  ``include_cpu_fallback`` also tries the CPU-only path,
    which wins for small inputs where transfers dominate.  Thin wrapper
    over :class:`repro.core.autotune.AutoTuner` for any registered
    workload (``workload`` is a :mod:`repro.workloads` id; the default
    keeps the historical mergesort behaviour).  ``adaptive=True``
    replaces the exhaustive grid with the tuner's coarse-to-fine
    search (used by the ``--fast`` sweeps).
    """
    tuner = _tuner_for(hpu, n, noise, workload=workload)
    tracer = active_tracer()
    if tracer is not None:
        # Sweep boundary marker: everything until the next marker on the
        # trace timeline belongs to this (platform, workload, n) grid
        # search.
        tracer.instant(
            f"sweep:{hpu.name}:n={n}",
            "autotune.sweep",
            device="runs",
            platform=hpu.name,
            n=n,
            adaptive=adaptive,
            workload=workload,
        )
    if levels is None:
        levels = range(max(2, tuner.workload.k - 18), tuner.workload.k + 1)
    search = tuner.tune_adaptive if adaptive else tuner.tune
    point = search(
        alphas=alphas,
        levels=levels,
        include_cpu_fallback=include_cpu_fallback,
    )
    return BestPoint(
        point.speedup, point.alpha, point.transfer_level, point.result
    )


def sweep_best_operating_points(
    points: Sequence[Tuple[HPU, int]],
    alphas: Sequence[float],
    levels: Optional[Sequence[int]] = None,
    noise: NoiseModel = NO_NOISE,
    include_cpu_fallback: bool = True,
    adaptive: bool = False,
    workload: str = "mergesort",
) -> List[BestPoint]:
    """Batch form of :func:`sweep_best_operating_point` over many points.

    Evaluates the (platform, n) grid searches in order, one after
    another, sharing the :data:`_TUNERS` memos — so a later sweep over
    the same grids (Fig. 10 after Fig. 8) hits the cache.
    """
    return [
        sweep_best_operating_point(
            hpu,
            n,
            alphas,
            levels=levels,
            noise=noise,
            include_cpu_fallback=include_cpu_fallback,
            adaptive=adaptive,
            workload=workload,
        )
        for hpu, n in points
    ]


def default_alpha_grid(fast: bool = False) -> List[float]:
    """The α grid of the paper's sweeps (Fig. 7's x-axis)."""
    step = 0.04 if fast else 0.02
    return round_all(arange(0.04, 0.44, step), 4)


def size_grid(fast: bool = False) -> List[int]:
    """Input sizes of the Fig. 8-10 sweeps (10^3 … 10^8 in the paper)."""
    exponents = range(10, 27, 2) if fast else range(10, 27)
    return [1 << e for e in exponents]
