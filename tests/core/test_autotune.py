import pytest

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.autotune import AutoTuner
from repro.core.schedule import AdvancedSchedule
from repro.errors import ScheduleError
from repro.hpu import HPU1
from tests.reference_search import reference_tune, reference_tune_adaptive


def tuner(n=1 << 18):
    return AutoTuner(HPU1, make_mergesort_workload(n))


class TestAutoTuner:
    def test_full_tune_beats_model_default(self):
        """The grid best is at least as fast as the analytical point."""
        t = tuner(1 << 20)
        plan = AdvancedSchedule().plan(t.workload, HPU1.parameters)
        model_point = t.executor.run_advanced(plan)
        tuned = t.tune(alphas=[0.1, 0.2, 0.3], levels=range(8, 13))
        assert tuned.speedup >= model_point.speedup * 0.999

    def test_cpu_fallback_wins_on_tiny_input(self):
        t = tuner(1 << 8)
        tuned = t.tune(alphas=[0.25], levels=[6, 8])
        assert not tuned.used_gpu
        assert tuned.alpha is None and tuned.transfer_level is None

    def test_fallback_excluded_forces_gpu_point(self):
        t = tuner(1 << 8)
        tuned = t.tune(
            alphas=[0.25], levels=[6], include_cpu_fallback=False
        )
        assert tuned.used_gpu

    def test_evaluation_count_reported(self):
        """The count is the runs spent: the fallback plus the points
        not skipped, never more than the unpruned search's 4 + 1."""
        t = tuner(1 << 14)
        tuned = t.tune(alphas=[0.2, 0.3], levels=[10, 12])
        assert tuned.evaluations == t.executor_runs
        reference = reference_tune(
            tuner(1 << 14), alphas=[0.2, 0.3], levels=[10, 12]
        )
        assert reference.evaluations == 5  # 4 grid points + fallback
        assert 1 <= tuned.evaluations <= reference.evaluations

    def test_warm_start_cheaper_than_full_grid(self):
        t = tuner(1 << 20)
        warm = t.tune_around_model()
        full_grid = len(t.default_alphas()) * len(list(t.default_levels()))
        assert warm.evaluations < full_grid / 4
        assert warm.used_gpu
        # lands near the analytical optimum
        plan = AdvancedSchedule().plan(t.workload, HPU1.parameters)
        assert abs(warm.transfer_level - plan.transfer_level) <= 2

    def test_inadmissible_points_skipped(self):
        t = tuner(1 << 14)
        tuned = t.tune(
            alphas=[2.0, 0.25], levels=[10], include_cpu_fallback=False
        )  # the invalid 2.0 is skipped, 0.25 evaluated
        assert tuned.used_gpu
        assert tuned.alpha == 0.25

    def test_no_admissible_point_raises(self):
        t = tuner(1 << 14)
        with pytest.raises(ScheduleError, match="no admissible"):
            t.tune(alphas=[2.0], levels=[10], include_cpu_fallback=False)

    def test_default_grids_validate(self):
        t = tuner()
        with pytest.raises(ScheduleError):
            t.default_alphas(step=0.9)
        assert list(t.default_levels(span=3))[-1] == t.workload.k


class TestEvaluationCache:
    def test_repeat_evaluation_spends_no_executor_run(self):
        t = tuner(1 << 14)
        first = t.evaluate(0.2, 10)
        assert t.executor_runs == 1
        second = t.evaluate(0.2, 10)
        assert t.executor_runs == 1
        assert second is first

    def test_cache_key_normalizes_numeric_types(self):
        import numpy as np

        t = tuner(1 << 14)
        a = t.evaluate(np.float64(0.2), np.int64(10))
        b = t.evaluate(0.2, 10)
        assert t.executor_runs == 1
        assert b is a

    def test_inadmissible_point_cached_and_reraised(self):
        t = tuner(1 << 14)
        with pytest.raises(ScheduleError):
            t.evaluate(2.0, 10)
        with pytest.raises(ScheduleError):
            t.evaluate(2.0, 10)
        assert t.executor_runs == 0  # plan() failed before the executor

    def test_cpu_fallback_memoized(self):
        t = tuner(1 << 14)
        first = t.evaluate_cpu_fallback()
        second = t.evaluate_cpu_fallback()
        assert second is first
        assert t.executor_runs == 1

    def test_overlapping_tunes_share_the_cache(self):
        """A second sweep over a superset grid re-runs no memoized
        point: it pays only for points the memo lacks."""
        t = tuner(1 << 14)
        t.tune(alphas=[0.2, 0.3], levels=[10, 12])
        memo = dict(t._cache)
        runs = t.executor_runs
        assert len(memo) == runs - 1  # every grid run, not the fallback
        second = t.tune(alphas=[0.2, 0.3, 0.4], levels=[10, 12])
        assert second.evaluations == t.executor_runs - runs
        new = set(t._cache) - set(memo)
        assert second.evaluations == len(new)
        assert all(t._cache[key] is value for key, value in memo.items())
        reference = reference_tune(
            tuner(1 << 14), alphas=[0.2, 0.3, 0.4], levels=[10, 12]
        )
        assert (second.alpha, second.transfer_level, second.speedup) == (
            reference.alpha, reference.transfer_level, reference.speedup
        )


class TestPrefetch:
    def test_fills_missing_points_in_level_major_order(self):
        t = tuner(1 << 14)
        t.evaluate(0.3, 10)
        count = t.prefetch(alphas=[0.2, 0.3, 2.0], levels=[10, 12])
        assert count == 5  # the cached (0.3, 10) is skipped
        assert list(t._cache) == [
            (0.3, 10), (0.2, 10), (2.0, 10), (0.2, 12), (0.3, 12), (2.0, 12)
        ]
        # The inadmissible alpha is memoized, not raised, and spends no
        # run: one run for the first evaluate, three for the prefetch.
        assert isinstance(t._cache[(2.0, 12)], ScheduleError)
        assert t.executor_runs == 4

    def test_later_tune_runs_on_cache_hits(self):
        t = tuner(1 << 14)
        assert t.prefetch(alphas=[0.2, 0.3], levels=[10, 12]) == 4
        tuned = t.tune(
            alphas=[0.2, 0.3], levels=[10, 12], include_cpu_fallback=False
        )
        assert tuned.evaluations == 0
        fresh = tuner(1 << 14).tune(
            alphas=[0.2, 0.3], levels=[10, 12], include_cpu_fallback=False
        )
        assert (tuned.alpha, tuned.transfer_level, tuned.speedup) == (
            fresh.alpha, fresh.transfer_level, fresh.speedup
        )

    def test_warm_grid_prefetches_nothing(self):
        t = tuner(1 << 14)
        t.prefetch(alphas=[0.2], levels=[10])
        assert t.prefetch(alphas=[0.2, 0.2], levels=[10]) == 0


class TestAdaptiveTune:
    def test_small_grid_falls_back_to_full_tune(self):
        t = tuner(1 << 14)
        adaptive = t.tune_adaptive(alphas=[0.2, 0.3], levels=[10, 12])
        exhaustive = tuner(1 << 14).tune(alphas=[0.2, 0.3], levels=[10, 12])
        assert adaptive == exhaustive

    def test_cheaper_than_exhaustive_on_default_grids(self):
        """The coarse-to-fine search runs under half the exhaustive
        grid, and pruning only ever lowers its count."""
        full = reference_tune(tuner(1 << 18))
        unpruned = reference_tune_adaptive(tuner(1 << 18))
        adaptive = tuner(1 << 18).tune_adaptive()
        assert unpruned.evaluations < full.evaluations / 2
        assert adaptive.evaluations <= unpruned.evaluations
        assert adaptive.used_gpu

    def test_finds_a_competitive_point(self):
        """The heuristic may settle off the global best, but not far."""
        full = tuner(1 << 18).tune()
        adaptive = tuner(1 << 18).tune_adaptive()
        assert adaptive.speedup >= full.speedup * 0.97

    def test_cpu_fallback_still_wins_on_tiny_input(self):
        adaptive = tuner(1 << 8).tune_adaptive()
        assert not adaptive.used_gpu

    def test_no_admissible_point_still_raises(self):
        t = tuner(1 << 14)
        with pytest.raises(ScheduleError, match="no admissible"):
            t.tune_adaptive(
                alphas=[2.0] * 9,
                levels=[10] * 9,
                include_cpu_fallback=False,
            )

    def test_deterministic(self):
        a = tuner(1 << 16).tune_adaptive()
        b = tuner(1 << 16).tune_adaptive()
        assert (a.speedup, a.alpha, a.transfer_level) == (
            b.speedup,
            b.alpha,
            b.transfer_level,
        )
