"""Empirical (α, y) auto-tuning.

The paper determines its operating points both analytically (§5.2.1)
and experimentally (Figs. 7, 10: "the optimal switching level and
cpu-gpu work ratio would have to be determined either analytically or
experimentally").  This module is the *experimental* path as a library
feature: grid-search the executor over transfer ratios and levels —
optionally warm-started from the analytical optimum — and return the
best measured operating point.

The Fig. 8/10 experiment sweeps are thin wrappers over this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.schedule import macro as _macro
from repro.core.schedule import program as _program
from repro.core.schedule.advanced import AdvancedPlan, AdvancedSchedule
from repro.core.schedule.executor import HybridRunResult, ScheduleExecutor
from repro.core.schedule.workload import DCWorkload
from repro.errors import ScheduleError
from repro.hpu.hpu import HPU
from repro.util.ambient import active_tracer
from repro.util.grids import arange, round_all, round_decimals
from repro.util.rng import NO_NOISE, NoiseModel


@dataclass(frozen=True)
class TunedPoint:
    """Outcome of an auto-tuning sweep."""

    speedup: float
    alpha: Optional[float]  # None: the CPU-only fallback won
    transfer_level: Optional[int]
    result: HybridRunResult
    evaluations: int  # executor runs spent; memo hits and skips are free

    @property
    def used_gpu(self) -> bool:
        return self.alpha is not None


class AutoTuner:
    """Grid search over the advanced schedule's operating points.

    One :class:`ScheduleExecutor` is built per tuner and reused across
    every sweep point, and :meth:`evaluate` memoizes its results on the
    (α, y) key — the executor is deterministic and the measurement noise
    is keyed, not sequential, so a repeated operating point is always
    the same measurement.

    The searches also skip points that provably cannot win (a
    branch-and-bound step with an exact bound): a point whose
    :func:`~repro.core.schedule.macro.floors` bound, noised with the
    run's own keyed draw, already gives a speedup no better than the
    incumbent's is never run, since the strict ``>`` update could not
    take it.  The selected point is the one the unpruned search
    selects, ties included.  Only :func:`~repro.core.schedule.macro.
    closed_form` runs are pruned (no fault plan, resilience session or
    execute hook), traced or not, replayed or on the DES.  A skipped
    point leaves no memo entry, only the bound that skipped it (a
    revisit against an incumbent no slower skips at once), so
    ``tuned.evaluations`` counts *executor runs actually spent*:
    neither memo hits nor skipped points.
    """

    def __init__(
        self,
        hpu: HPU,
        workload: DCWorkload,
        noise: NoiseModel = NO_NOISE,
        executor: Optional[ScheduleExecutor] = None,
    ) -> None:
        self.hpu = hpu
        self.workload = workload
        self.executor = (
            ScheduleExecutor(hpu, workload, noise=noise)
            if executor is None
            else executor
        )
        self.scheduler = AdvancedSchedule()
        #: (α, y) -> result, or the ScheduleError the point raised.
        self._cache: Dict[
            Tuple[float, int], Union[HybridRunResult, ScheduleError]
        ] = {}
        self._cpu_fallback: Optional[HybridRunResult] = None
        #: The last point compiled, as (key, plan, program): the skip
        #: test and the run that may follow it share one compilation.
        self._compiled: Optional[tuple] = None
        #: (α, y) -> the speedup bound that skipped the point, so that a
        #: later sweep over it (a refinement pass, an overlapping grid)
        #: skips it again without compiling or pricing anything.
        self._bounds: Dict[Tuple[float, int], float] = {}
        #: Executor runs spent over this tuner's lifetime (cache misses).
        self.executor_runs = 0

    # ------------------------------------------------------------------
    def default_alphas(self, step: float = 0.02) -> List[float]:
        """The α grid of the paper's sweeps."""
        if not 0.0 < step < 0.5:
            raise ScheduleError(f"alpha step must be in (0, 0.5), got {step!r}")
        return round_all(arange(step, 0.5, step), 6)

    def default_levels(self, span: int = 12) -> range:
        """Transfer levels from ``span`` above the leaves to the leaves."""
        k = self.workload.k
        return range(max(2, k - span), k + 1)

    # ------------------------------------------------------------------
    def evaluate(self, alpha: float, transfer_level: int) -> HybridRunResult:
        """Run one operating point (raises if it is inadmissible).

        Memoized: the first visit plans and runs the executor; repeat
        visits (e.g. the refinement pass of :meth:`tune_adaptive`
        re-crossing the coarse grid) return the recorded result — or
        re-raise the recorded :class:`ScheduleError` — for free.
        """
        key = (float(alpha), int(transfer_level))
        cached = self._cache.get(key)
        if cached is not None:
            if isinstance(cached, ScheduleError):
                raise cached
            return cached
        plan, program = self._compile(key)
        tracer = active_tracer()
        if tracer is not None:
            # Tag the run the executor is about to open, so fig7/fig10
            # sweep traces carry their operating point per segment.
            tracer.annotate_next_run(
                autotune="evaluate", alpha=key[0], transfer_level=key[1]
            )
        result = self.executor.run_advanced(plan, program)
        self.executor_runs += 1
        self._cache[key] = result
        return result

    def _compile(
        self, key: Tuple[float, int]
    ) -> Tuple[AdvancedPlan, _program.Program]:
        """The plan and step program of a point missing from the memo;
        an inadmissible point's :class:`ScheduleError` is memoized and
        raised."""
        compiled = self._compiled
        if compiled is not None and compiled[0] == key:
            return compiled[1], compiled[2]
        try:
            plan = self.scheduler.plan(
                self.workload,
                self.hpu.parameters,
                alpha=key[0],
                transfer_level=key[1],
            )
            program = _program.advanced(self.workload, plan)
        except ScheduleError as err:
            self._cache[key] = err
            raise
        self._compiled = (key, plan, program)
        return plan, program

    def _cannot_win(self, key: Tuple[float, int], bar: float) -> bool:
        """Whether the point's speedup provably cannot exceed ``bar``.

        Its makespan is at least each floor, and the keyed noise
        multiplies by ``1 + eps > 0``, so its speedup is at most
        ``sequential_ops / noised floor``: monotone float operations
        all, so the bound is exact.  Stops at the first floor that
        settles it, before the remaining levels are priced.
        """
        known = self._bounds.get(key)
        if known is not None and known <= bar:
            return True
        x = self.executor
        program = self._compile(key)[1]
        sequential = x.sequential_ops()
        apply, name = x.noise.apply, x.workload.name
        noise_key = program.noise_key
        for floor in _macro.floors(x, program):
            noised = apply(floor, name, *noise_key)
            if noised > 0.0 and sequential / noised <= bar:
                self._bounds[key] = sequential / noised
                return True
        return False

    def evaluate_cpu_fallback(self) -> HybridRunResult:
        """The multicore-only execution (memoized like the grid points)."""
        if self._cpu_fallback is None:
            tracer = active_tracer()
            if tracer is not None:
                tracer.annotate_next_run(autotune="cpu-fallback")
            self._cpu_fallback = self.executor.run_cpu_only()
            self.executor_runs += 1
        return self._cpu_fallback

    def prefetch(self, alphas, levels) -> int:
        """Fill the memo for a grid without selecting a best point.

        Evaluates the grid points missing from :attr:`_cache` in the
        level-major order :meth:`tune` visits; inadmissible points are
        recorded in the memo like any other.  A later :meth:`tune` over
        the same grid then runs entirely on cache hits.  Returns the
        number of points evaluated.
        """
        count = 0
        for level in levels:
            for alpha in alphas:
                key = (float(alpha), int(level))
                if key in self._cache:
                    continue
                count += 1
                try:
                    self.evaluate(*key)
                except ScheduleError:
                    pass  # recorded in the memo; tune() re-raises it
        return count

    def tune(
        self,
        alphas: Optional[Sequence[float]] = None,
        levels: Optional[Sequence[int]] = None,
        include_cpu_fallback: bool = True,
    ) -> TunedPoint:
        """Find the best measured operating point over the grid.

        ``include_cpu_fallback`` also evaluates the multicore-only
        execution, which wins on inputs too small to amortize the
        transfers (the left end of Fig. 8).
        """
        alphas = self.default_alphas() if alphas is None else alphas
        levels = self.default_levels() if levels is None else levels
        runs_before = self.executor_runs
        best = self.evaluate_cpu_fallback() if include_cpu_fallback else None
        best, point = self._search(alphas, levels, best, (None, None))
        if best is None:
            raise ScheduleError(
                "auto-tuning found no admissible operating point"
            )
        return TunedPoint(
            best.speedup, *point, best, self.executor_runs - runs_before
        )

    def _search(
        self,
        alphas: Sequence[float],
        levels: Sequence[int],
        best: Optional[HybridRunResult],
        point: Tuple[Optional[float], Optional[int]],
    ) -> Tuple[Optional[HybridRunResult], tuple]:
        """Scan the grid level-major from the incumbent ``best`` (at
        ``point``); a point replaces it only when strictly faster.
        Returns the final incumbent and its point."""
        prune = _macro.closed_form(self.executor)
        for level in levels:
            for alpha in alphas:
                key = (float(alpha), int(level))
                try:
                    if (
                        prune
                        and best is not None
                        and key not in self._cache
                        and self._cannot_win(key, best.speedup)
                    ):
                        continue
                    result = self.evaluate(*key)
                except ScheduleError:
                    continue
                if best is None or result.speedup > best.speedup:
                    best, point = result, key
        return best, point

    def tune_adaptive(
        self,
        alphas: Optional[Sequence[float]] = None,
        levels: Optional[Sequence[int]] = None,
        include_cpu_fallback: bool = True,
        coarse: int = 3,
    ) -> TunedPoint:
        """Coarse-to-fine search: a decimated grid, then refinement.

        Evaluates every ``coarse``-th α and level, then scans the
        full-resolution neighbourhood around the incumbent, which a
        point replaces only when strictly faster (so the refinement
        pass also skips every point that cannot beat the coarse best).
        Thanks to :meth:`evaluate`'s memoization the refinement pass
        pays nothing for re-crossing coarse points, so the total cost
        drops from ``|alphas| x |levels|`` to roughly ``that /
        coarse**2`` plus a ``(2 coarse - 1)**2`` neighbourhood — tens of
        runs instead of hundreds on the Fig. 8/10 grids.  The
        incumbent-refinement
        search can in principle settle on a slightly different point
        than the exhaustive grid (it is a search heuristic, not an
        executor change), which is why only the ``--fast`` experiment
        sweeps use it.
        """
        alphas = [
            float(a)
            for a in (self.default_alphas() if alphas is None else alphas)
        ]
        levels = [
            int(y)
            for y in (self.default_levels() if levels is None else levels)
        ]
        if coarse < 2 or len(alphas) * len(levels) <= coarse**2:
            return self.tune(alphas, levels, include_cpu_fallback)
        runs_before = self.executor_runs
        try:
            best = self.tune(
                alphas[::coarse], levels[::coarse], include_cpu_fallback
            )
        except ScheduleError:
            # The decimated grid can miss every admissible point; the
            # full grid is the authority on "no admissible point".
            return self.tune(alphas, levels, include_cpu_fallback)
        if best.used_gpu:
            ai = min(
                range(len(alphas)), key=lambda i: abs(alphas[i] - best.alpha)
            )
            yi = min(
                range(len(levels)),
                key=lambda i: abs(levels[i] - best.transfer_level),
            )
            near_alphas = alphas[max(0, ai - coarse + 1) : ai + coarse]
            near_levels = levels[max(0, yi - coarse + 1) : yi + coarse]
            result, point = self._search(
                near_alphas,
                near_levels,
                best.result,
                (best.alpha, best.transfer_level),
            )
            best = TunedPoint(result.speedup, *point, result, 0)
        return TunedPoint(
            best.speedup,
            best.alpha,
            best.transfer_level,
            best.result,
            self.executor_runs - runs_before,
        )

    def tune_around_model(self, spread: int = 2) -> TunedPoint:
        """Warm-started tuning: a small grid around the analytical optimum.

        Mirrors practice: the model proposes (α*, y*), a handful of
        neighbouring runs polish it.  Far cheaper than the full grid
        (tens of runs instead of hundreds).
        """
        plan = self.scheduler.plan(self.workload, self.hpu.parameters)
        alpha0 = plan.alpha
        y0 = plan.transfer_level
        alphas = [
            a
            for a in (
                round_decimals(alpha0 + i * 0.04, 6)
                for i in range(-spread, spread + 1)
            )
            if 0.0 < a < 1.0
        ]
        levels = [
            y
            for y in range(y0 - spread, y0 + spread + 1)
            if 1 <= y <= self.workload.k
        ]
        return self.tune(
            alphas=alphas, levels=levels, include_cpu_fallback=False
        )
