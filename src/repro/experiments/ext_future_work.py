"""Extension experiment: the paper's §7 future-work ideas, quantified.

Not a table or figure from the paper — the evaluation the authors
proposed but did not run.  Three comparisons on HPU1:

1. plain advanced schedule vs the *parallel-kernel tail* (§7 idea 1);
2. plain leaves vs *sequential leaf blocks* at small and large n
   (§7 idea 2), each at its best (α, y);
3. one vs two GPU cards (§3.2's multi-GPU extension; footnote 5's
   rationale for running the dual-die HD 5970 as a single card).
"""

from __future__ import annotations

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.schedule import AdvancedSchedule, ScheduleExecutor
from repro.core.schedule.extensions import plan_parallel_tail
from repro.experiments.common import ExperimentResult
from repro.hpu import HPU1, dual_card
from repro.util.grids import arange
from repro.util.intmath import ilog2


def _best_advanced(hpu, workload, fast: bool):
    """Best (α, y) for a workload by grid search; returns the result."""
    executor = ScheduleExecutor(hpu, workload)
    scheduler = AdvancedSchedule()
    best = executor.run_cpu_only()
    step = 0.1 if fast else 0.05
    for level in range(max(2, workload.k - 12), workload.k + 1):
        for alpha in arange(0.05, 0.5, step):
            try:
                plan = scheduler.plan(
                    workload,
                    hpu.parameters,
                    alpha=float(alpha),
                    transfer_level=level,
                )
                result = executor.run_advanced(plan)
            except Exception:
                continue
            if result.speedup > best.speedup:
                best = result
    return best


def run(fast: bool = False) -> ExperimentResult:
    rows = []

    # 1. parallel-kernel tail at n = 2^24
    n = 1 << 24
    workload = make_mergesort_workload(n)
    executor = ScheduleExecutor(HPU1, workload)
    base_plan = AdvancedSchedule().plan(workload, HPU1.parameters)
    base = executor.run_advanced(base_plan)
    tail = executor.run_advanced_parallel_tail(
        plan_parallel_tail(base_plan, workload, HPU1.parameters)
    )
    rows.append(
        ["parallel-kernel tail", f"2^{ilog2(n)}",
         round(base.speedup, 2), round(tail.speedup, 2)]
    )

    # 2. sequential leaf blocks, small and large n
    for e in (12, 20):
        n = 1 << e
        plain = _best_advanced(HPU1, make_mergesort_workload(n), fast)
        blocked = _best_advanced(
            HPU1, make_mergesort_workload(n, leaf_block=256), fast
        )
        rows.append(
            [f"leaf blocks S=256", f"2^{e}",
             round(plain.speedup, 2), round(blocked.speedup, 2)]
        )

    # 3. a second GPU card (footnote 5)
    n = 1 << 24
    single_w = make_mergesort_workload(n)
    single = ScheduleExecutor(HPU1, single_w).run_advanced(
        AdvancedSchedule().plan(single_w, HPU1.parameters)
    )
    duo = dual_card(HPU1)
    duo_w = make_mergesort_workload(n)
    dual = ScheduleExecutor(duo, duo_w).run_advanced_multi(
        AdvancedSchedule().plan(duo_w, duo.parameters)
    )
    rows.append(
        ["second GPU card", f"2^{ilog2(n)}",
         round(single.speedup, 2), round(dual.speedup, 2)]
    )

    return ExperimentResult(
        experiment_id="ext1",
        title="Section-7 future-work features vs the plain advanced schedule",
        headers=["feature", "n", "baseline speedup", "extended speedup"],
        rows=rows,
        notes=[
            "parallel tail: GPU finishes its partition with binary-search "
            "merges instead of handing back to the CPU",
            "leaf blocks: bottom log2(S) levels collapsed into sequential "
            "block sorts (same work, fewer launches)",
            "second card: transfers serialize on the shared link — the "
            "modest gain is footnote 5's reason to run the HD 5970 as "
            "one card",
        ],
        paper_expectation=(
            "§7: both scheduler optimizations 'could lead to performance "
            "gains'; §3.2/footnote 5: a second card not worth the extra "
            "transfers for mergesort"
        ),
    )
