"""Figure 8: hybrid mergesort speedup vs input size, both platforms.

Three series per platform, as in the paper:

- *measured*: the best advanced-hybrid speedup found by an (α, y) grid
  search at each size (with the CPU-only fallback for tiny inputs);
- *predicted*: the analytical model's speedup at its optimum;
- *GPU/CPU*: the ratio between GPU busy time and CPU fully-utilized
  time at the best measured point (the blue line; ≈1 near the peaks).

Paper headlines: maxima of 4.54x (HPU1) and 4.35x (HPU2) against
estimates of 5.47x and 5.7x; measured speedups peak around n = 2^20 and
drift down as LLC pressure grows.
"""

from __future__ import annotations

from repro.core.model import ModelContext, predict_hybrid_speedup
from repro.experiments.common import (
    MEASUREMENT_NOISE,
    ExperimentResult,
    default_alpha_grid,
    fmt_ratio,
    size_grid,
    sweep_best_operating_points,
)
from repro.hpu import PLATFORMS
from repro.util.intmath import ilog2


def predicted_speedup(hpu, n: int) -> float:
    ctx = ModelContext(a=2, b=2, n=n, f=lambda m: m, params=hpu.parameters)
    return predict_hybrid_speedup(ctx)


def run(fast: bool = False) -> ExperimentResult:
    alphas = default_alpha_grid(fast)
    sizes = size_grid(fast)
    platforms = sorted(PLATFORMS.items())
    # One flat batch across both platforms, in table order.
    bests = iter(
        sweep_best_operating_points(
            [(hpu, n) for _, hpu in platforms for n in sizes],
            alphas,
            noise=MEASUREMENT_NOISE,
            adaptive=fast,
        )
    )
    rows = []
    notes = []
    for name, hpu in platforms:
        peak = (0.0, 0)
        for n in sizes:
            best = next(bests)
            pred = predicted_speedup(hpu, n)
            rows.append(
                [
                    name,
                    f"2^{ilog2(n)}",
                    round(best.speedup, 3),
                    round(pred, 3),
                    fmt_ratio(best.result.gpu_cpu_ratio),
                ]
            )
            if best.speedup > peak[0]:
                peak = (best.speedup, ilog2(n))
        notes.append(
            f"{name}: max measured speedup {peak[0]:.2f}x at n=2^{peak[1]}"
        )
    return ExperimentResult(
        experiment_id="fig8",
        title="Hybrid mergesort speedup vs input size (measured, predicted, "
        "GPU/CPU ratio)",
        headers=["platform", "n", "measured", "predicted", "GPU/CPU"],
        rows=rows,
        notes=notes,
        paper_expectation=(
            "max 4.54x (HPU1) / 4.35x (HPU2) vs predicted 5.47x / 5.7x; "
            "peak near 2^20 then declining; GPU/CPU ratio near 1 at the "
            "best points"
        ),
    )
