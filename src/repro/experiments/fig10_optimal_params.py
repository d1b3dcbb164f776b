"""Figure 10: empirically-best α and y vs the model's predictions (HPU1).

For each input size, grid-search the (α, y) giving the smallest running
time and compare with the analytical optimum.  The paper observes the
obtained values approach the predicted ones as n grows — the obtained
transfer levels essentially coincide with the (integer-rounded)
predictions for large inputs.
"""

from __future__ import annotations

from repro.core.model import AdvancedModel, ModelContext
from repro.experiments.common import (
    MEASUREMENT_NOISE,
    ExperimentResult,
    default_alpha_grid,
    fmt_ratio,
    size_grid,
    sweep_best_operating_points,
)
from repro.hpu import HPU1
from repro.util.intmath import ilog2


def run(fast: bool = False) -> ExperimentResult:
    alphas = default_alpha_grid(fast)
    # below 2^12 the CPU-only fallback always wins
    sizes = [n for n in size_grid(fast) if n >= 1 << 12]
    # In a full-runner invocation the shared tuner memos make these
    # grids near-free after Fig. 8.
    bests = sweep_best_operating_points(
        [(HPU1, n) for n in sizes],
        alphas,
        noise=MEASUREMENT_NOISE,
        include_cpu_fallback=False,
        adaptive=fast,
    )
    rows = []
    converged = []
    for n, best in zip(sizes, bests):
        ctx = ModelContext(a=2, b=2, n=n, f=lambda m: m, params=HPU1.parameters)
        sol = AdvancedModel(ctx).optimize()
        rows.append(
            [
                f"2^{ilog2(n)}",
                fmt_ratio(best.alpha),
                round(sol.alpha, 3),
                fmt_ratio(best.transfer_level),
                round(sol.y, 2),
            ]
        )
        if n >= 1 << 22 and best.transfer_level is not None:
            converged.append(abs(best.transfer_level - sol.y) <= 1.5)
    return ExperimentResult(
        experiment_id="fig10",
        title="Best measured work ratio and transfer level vs model "
        "predictions (HPU1)",
        headers=[
            "n",
            "alpha (obtained)",
            "alpha (predicted)",
            "level (obtained)",
            "level (predicted)",
        ],
        rows=rows,
        notes=[
            "obtained transfer levels land within ~1 level of the "
            "prediction for large n: "
            + ("yes" if converged and all(converged) else "partially"),
        ],
        paper_expectation=(
            "obtained parameters approach predictions as n grows; levels "
            "essentially coincide for large n"
        ),
    )
