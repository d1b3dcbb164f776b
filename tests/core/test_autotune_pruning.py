"""The tuner's exact skip test: floors, selections and traces.

:meth:`AutoTuner.tune` skips a point when its makespan floor, noised
with the run's own keyed draw, already gives a speedup no better than
the incumbent's.  These tests pin the two facts that make the skip
exact — the floor never exceeds the raw makespan, and the pruned
searches select what the unpruned reference search selects — and that
a traced sweep records exactly the runs the untraced tuner spends.
"""

import random

import pytest

from repro.core.autotune import AutoTuner
from repro.core.schedule import ScheduleExecutor
from repro.core.schedule import macro as macro_module
from repro.core.schedule import program as program_module
from repro.errors import ScheduleError
from repro.experiments import common
from repro.hpu import HPU1, PLATFORMS
from repro.obs.tracer import Tracer, deactivate, tracing
from repro.util.rng import NoiseModel
from repro.workloads import get, workload_ids
from tests.reference_search import reference_tune, reference_tune_adaptive

FIGURES = ("fig8", "fig10", "figw")


@pytest.fixture(autouse=True)
def _cold_tuners():
    common._TUNERS.clear()
    deactivate()
    yield
    common._TUNERS.clear()
    deactivate()


def _run_figure(exp_id):
    from repro.experiments.runner import EXPERIMENTS

    EXPERIMENTS[exp_id](True)


def _raw(executor, program):
    """The raw (pre-noise) makespan of ``program``: ``executor`` has no
    noise.  The replay, or the DES where the replay bails."""
    result = macro_module.replay(executor, program)
    if result is None:
        result = executor._des(program)
    return result.makespan


def _sweeps(monkeypatch, exp_id):
    """The (platform, n) sweeps ``exp_id --fast`` runs, with their
    arguments."""
    calls = []
    original = common.sweep_best_operating_point

    def record(hpu, n, alphas, **kwargs):
        calls.append((hpu, n, list(alphas), kwargs))
        return original(hpu, n, alphas, **kwargs)

    monkeypatch.setattr(common, "sweep_best_operating_point", record)
    _run_figure(exp_id)
    monkeypatch.undo()
    common._TUNERS.clear()
    return calls


def _tuner(hpu, n, kwargs):
    workload = get(kwargs.get("workload", "mergesort")).workload(n)
    return AutoTuner(hpu, workload, noise=kwargs["noise"])


def _levels(tuner, kwargs):
    levels = kwargs.get("levels")
    if levels is None:
        k = tuner.workload.k
        levels = range(max(2, k - 18), k + 1)
    return list(levels)


def _point(tuned):
    return (tuned.speedup, tuned.alpha, tuned.transfer_level, tuned.result)


class TestFloor:
    def _check(self, executor, program):
        floors = list(macro_module.floors(executor, program))
        assert floors == sorted(floors)
        floor = floors[-1]  # every level priced
        raw = _raw(executor, program)
        assert 0.0 < floor <= raw
        if not (program.cpu and program.tail):
            # Nothing contends for the core pool: the floor is the
            # replay's own arithmetic.
            assert floor == raw
        return floor == raw

    @pytest.mark.parametrize("exp_id", FIGURES)
    def test_floor_bounds_every_figure_program(self, monkeypatch, exp_id):
        """Every program the figure's tuners compile, skipped or run."""
        compiled = []
        original = AutoTuner._compile

        def record(tuner, key):
            plan, program = original(tuner, key)
            compiled.append((tuner.hpu, tuner.workload, program))
            return plan, program

        monkeypatch.setattr(AutoTuner, "_compile", record)
        _run_figure(exp_id)
        assert compiled
        executors = {}
        exact = 0
        for hpu, workload, program in compiled:
            key = (hpu.name, workload.name, workload.total_elements)
            executor = executors.get(key)
            if executor is None:
                executor = executors[key] = ScheduleExecutor(hpu, workload)
            exact += self._check(executor, program)
        assert exact  # the bound is attained, not merely valid

    @pytest.mark.parametrize("workload_id", sorted(workload_ids()))
    def test_floor_bounds_serve_deck_programs(self, workload_id):
        """A seeded sample of the serve decks' sweeps: both platforms,
        every fast size, the fast and the full α grids."""
        entry = get(workload_id)
        rng = random.Random(f"floor:{workload_id}")
        for hpu in (PLATFORMS["HPU1"], PLATFORMS["HPU2"]):
            for n in entry.default_sizes(fast=True):
                workload = entry.workload(n)
                executor = ScheduleExecutor(hpu, workload)
                tuner = AutoTuner(hpu, workload)
                alphas = common.default_alpha_grid(fast=rng.random() < 0.5)
                levels = range(max(2, workload.k - 18), workload.k + 1)
                grid = [(a, y) for y in levels for a in alphas]
                for alpha, level in rng.sample(grid, min(24, len(grid))):
                    try:
                        _plan, program = tuner._compile((alpha, level))
                    except ScheduleError:
                        continue
                    self._check(executor, program)
                self._check(
                    executor, program_module.cpu_only(hpu, workload)
                )

    def test_des_ends_at_or_after_the_floor(self):
        """The DES interpreter, contended tails included."""
        workload = get("mergesort").workload(1 << 16)
        executor = ScheduleExecutor(HPU1, workload, macro=False)
        tuner = AutoTuner(HPU1, workload)
        for level in range(workload.k - 8, workload.k + 1):
            for alpha in (0.04, 0.2, 0.4):
                _plan, program = tuner._compile((alpha, level))
                raw = executor._des(program).makespan
                floors = list(macro_module.floors(executor, program))
                assert floors[-1] <= raw

    def test_striped_programs_have_no_floor(self):
        from repro.core.schedule import AdvancedSchedule
        from repro.hpu.multi import dual_card

        duo = dual_card(HPU1)
        workload = get("mergesort").workload(1 << 14)
        plan = AdvancedSchedule().plan(workload, duo.parameters)
        program = program_module.multi(duo, workload, plan)
        executor = ScheduleExecutor(duo, workload)
        assert list(macro_module.floors(executor, program)) == []


class TestSameSelection:
    @pytest.mark.parametrize("exp_id", FIGURES)
    def test_pruned_searches_select_the_reference_point(
        self, monkeypatch, exp_id
    ):
        """On every sweep grid of the figure, exhaustive and adaptive:
        the same point, speedup and run result, for no more runs."""
        for hpu, n, alphas, kwargs in _sweeps(monkeypatch, exp_id):
            fallback = kwargs.get("include_cpu_fallback", True)
            grid = dict(alphas=alphas, include_cpu_fallback=fallback)
            for search, reference in (
                (AutoTuner.tune, reference_tune),
                (AutoTuner.tune_adaptive, reference_tune_adaptive),
            ):
                pruned = _tuner(hpu, n, kwargs)
                levels = _levels(pruned, kwargs)
                got = search(pruned, levels=levels, **grid)
                want = reference(_tuner(hpu, n, kwargs), levels=levels, **grid)
                assert _point(got) == _point(want), (hpu.name, n, search)
                assert got.evaluations <= want.evaluations
                assert got.evaluations == pruned.executor_runs

    def _tie_grid(self):
        """Two α that integerize to one plan: equal runs, equal
        speedups, distinct memo keys."""
        tuner = AutoTuner(HPU1, get("mergesort").workload(1 << 16))
        first = tuner.scheduler.plan(
            tuner.workload, HPU1.parameters, alpha=0.2, transfer_level=12
        )
        second = tuner.scheduler.plan(
            tuner.workload, HPU1.parameters, alpha=0.2001, transfer_level=12
        )
        assert first.cpu_tasks_at_split == second.cpu_tasks_at_split
        return [0.2, 0.2001]

    @pytest.mark.parametrize("order", [1, -1])
    def test_ties_keep_the_first_point(self, order):
        alphas = self._tie_grid()[::order]
        tuner = AutoTuner(HPU1, get("mergesort").workload(1 << 16))
        got = tuner.tune(alphas, [12], include_cpu_fallback=False)
        want = reference_tune(
            AutoTuner(HPU1, get("mergesort").workload(1 << 16)),
            alphas, [12], include_cpu_fallback=False,
        )
        assert _point(got) == _point(want)
        assert got.alpha == alphas[0]
        # The tied point cannot beat the incumbent: skipped, not run.
        assert (want.evaluations, got.evaluations) == (2, 1)

    def test_refinement_keeps_the_coarse_best_when_all_skipped(self):
        """A refinement pass whose every new point is skipped returns
        the coarse best itself (matmul at 128 on HPU1 is one)."""
        workload = get("matmul").workload(128)
        levels = list(range(max(2, workload.k - 18), workload.k + 1))
        alphas = common.default_alpha_grid(fast=True)
        tuner = AutoTuner(HPU1, workload, noise=common.MEASUREMENT_NOISE)
        coarse = tuner.tune(alphas[::3], levels[::3])
        # The coarse pass is now all memo hits: every run tune_adaptive
        # spends is a refinement run.
        adaptive = tuner.tune_adaptive(alphas, levels)
        assert coarse.used_gpu and adaptive.evaluations == 0
        assert _point(adaptive) == _point(coarse)
        want = reference_tune_adaptive(
            AutoTuner(HPU1, workload, noise=common.MEASUREMENT_NOISE),
            alphas, levels,
        )
        assert _point(adaptive) == _point(want)

    def test_revisits_skip_on_the_recorded_bound(self, monkeypatch):
        """A second sweep over the grid re-runs nothing and recompiles
        no skipped point: the bound that skipped it settles it again."""
        workload = get("mergesort").workload(1 << 16)
        alphas = common.default_alpha_grid(fast=True)
        tuner = AutoTuner(HPU1, workload, noise=common.MEASUREMENT_NOISE)
        first = tuner.tune(alphas)
        assert tuner._bounds
        compiled = []
        original = AutoTuner._compile

        def record(tuner, key):
            compiled.append(key)
            return original(tuner, key)

        monkeypatch.setattr(AutoTuner, "_compile", record)
        again = tuner.tune(alphas)
        assert _point(again) == _point(first)
        assert again.evaluations == 0 and compiled == []

    def test_pruning_is_off_under_a_resilience_session(self):
        """Fault runs keep running every point (and meet their
        faults)."""
        from repro.resilience import (
            FaultPlan,
            ResilienceConfig,
            install,
            uninstall,
        )

        workload = get("mergesort").workload(1 << 14)
        install(ResilienceConfig(plan=FaultPlan(name="empty", faults=())))
        try:
            tuner = AutoTuner(HPU1, workload)
            tuned = tuner.tune([0.2, 0.3], [10, 12])
        finally:
            uninstall()
        assert tuned.evaluations == 5  # 4 grid points + fallback


class TestTracedSweep:
    @pytest.mark.parametrize("workload_id", ["mergesort", "strassen"])
    def test_traced_runs_are_the_untraced_memo(self, workload_id):
        """A traced sweep records one annotated run per point the
        untraced tuner spends a run on, in the same order."""
        entry = get(workload_id)
        n = entry.default_sizes(fast=True)[-1]
        noise = NoiseModel(amplitude=0.015, seed=7)
        alphas = common.default_alpha_grid(fast=True)

        def sweep():
            tuner = AutoTuner(HPU1, entry.workload(n), noise=noise)
            tuned = tuner.tune_adaptive(alphas)
            return tuner, tuned

        untraced, want = sweep()
        with tracing(Tracer()) as tracer:
            _traced, got = sweep()
        assert _point(got) == _point(want)
        annotated = [
            (record.attrs["alpha"], record.attrs["transfer_level"])
            for record in tracer.runs
            if record.attrs.get("autotune") == "evaluate"
        ]
        memo = [
            key
            for key, value in untraced._cache.items()
            if not isinstance(value, ScheduleError)
        ]
        assert annotated == memo
        assert len(tracer.runs) == untraced.executor_runs
