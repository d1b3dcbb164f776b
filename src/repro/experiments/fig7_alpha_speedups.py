"""Figure 7: hybrid speedup vs transfer ratio α, per transfer level.

HPU1, n = 2^24, transfer levels 7–12, α up to 0.35.  The paper observes
speedups "do not differ too much across transfer levels", rising up to
level 10 and falling from 11, best ratios near the estimated α* ≈ 0.16,
and a maximum around 4.5x.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.schedule import AdvancedSchedule, ScheduleExecutor
from repro.experiments.common import MEASUREMENT_NOISE, ExperimentResult
from repro.hpu import HPU1

N = 1 << 24
LEVELS = range(7, 13)


def _level_speedups(level, alphas):
    """One transfer level's α sweep on a fresh workload and executor."""
    workload = make_mergesort_workload(N)
    executor = ScheduleExecutor(HPU1, workload, noise=MEASUREMENT_NOISE)
    scheduler = AdvancedSchedule()
    speedups = []
    for alpha in alphas:
        plan = scheduler.plan(
            workload,
            HPU1.parameters,
            alpha=float(alpha),
            transfer_level=int(level),
        )
        speedups.append(executor.run_advanced(plan).speedup)
    return speedups


def run(fast: bool = False) -> ExperimentResult:
    alphas = [float(a) for a in np.round(
        np.arange(0.04, 0.36, 0.08 if fast else 0.02), 3
    )]
    per_level = [_level_speedups(level, alphas) for level in LEVELS]

    rows = []
    best = (0.0, None, None)
    for level, speedups in zip(LEVELS, per_level):
        for alpha, speedup in zip(alphas, speedups):
            rows.append([int(level), alpha, round(speedup, 3)])
            if speedup > best[0]:
                best = (speedup, alpha, int(level))

    return ExperimentResult(
        experiment_id="fig7",
        title="Hybrid mergesort speedup vs transfer ratio alpha "
        "(HPU1, n=2^24, transfer levels 7-12)",
        headers=["transfer level", "alpha", "speedup"],
        rows=rows,
        notes=[
            f"best speedup {best[0]:.2f}x at alpha={best[1]}, level={best[2]}",
        ],
        paper_expectation=(
            "curves similar across levels, improving to level 10 and "
            "degrading from 11; best ≈4.5x near alpha ≈ 0.16"
        ),
    )
