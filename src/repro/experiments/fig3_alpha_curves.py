"""Figure 3: y(α) and GPU work share for the §5.2.2 worked example.

Mergesort (a=b=2, f(n)=Θ(n)) with HPU1 parameters (p=4, g=2^12,
γ⁻¹=160) and n=2^24.  The paper reads off α* ≈ 0.16 maximizing the
GPU's share of total work at ≈52 %, with the GPU reaching level ≈10.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ClosedFormModel, ModelContext
from repro.experiments.common import ExperimentResult
from repro.hpu import HPU1

N = 1 << 24


def model(n: int = N) -> ClosedFormModel:
    ctx = ModelContext(a=2, b=2, n=n, f=lambda m: m, params=HPU1.parameters)
    return ClosedFormModel(ctx)


def run(fast: bool = False) -> ExperimentResult:
    cf = model()
    grid = np.linspace(0.02, 0.35, 12 if fast else 34)
    rows = []
    for alpha in grid:
        alpha = float(alpha)
        y = cf.solve_y(alpha)
        share = cf.gpu_work(alpha) / cf.total_work()
        rows.append([round(alpha, 3), round(y, 2), round(100 * share, 1)])

    fine = np.linspace(1e-3, 0.999, 4000)
    alpha_star = float(max(fine, key=cf.gpu_work))
    best_share = cf.gpu_work(alpha_star) / cf.total_work()
    return ExperimentResult(
        experiment_id="fig3",
        title="Level reached by the GPU and GPU work share vs alpha "
        "(mergesort, HPU1, n=2^24)",
        headers=["alpha", "y(alpha)", "GPU work %"],
        rows=rows,
        notes=[
            f"alpha* = {alpha_star:.3f} with GPU share "
            f"{100 * best_share:.1f}% at level y = "
            f"{cf.solve_y(alpha_star):.2f}",
        ],
        paper_expectation=(
            "alpha* ≈ 0.16, GPU does ≈52% of total work, level ≈10"
        ),
    )
