"""Golden correctness per seeded workload: real outputs, pinned bands.

Each registered adapter's ExecuteHook runs over real host data during
a simulated schedule; these tests check the *answers* against
independent pure-python/numpy references computed in the test itself
(not the adapter's own ``verify``): sortedness + permutation for the
sorts, an O(n²) brute-force scan for closest pair, ``a @ b`` for the
matrix products, and a naive DFT matrix for the FFT.

A negative control asserts ``verify()`` fails *before* the schedule
runs — so a scheduler that silently dropped every batch could not
pass — and the conformance section pins each entry's analytic-model
residual band (``WorkloadEntry.conformance_band``) at its reference
operating point, two-sided: the measured mean must sit inside the
band but above half of it, so bands stay honest as models evolve.
"""

import numpy as np
import pytest

from repro.core.model.oracle import OPTIMISM_TOLERANCE, conformance_from_attrs
from repro.core.schedule import AdvancedSchedule, BasicSchedule, ScheduleExecutor
from repro.experiments import common
from repro.hpu import HPU1
from repro.obs.tracer import Tracer, deactivate, tracing
from repro.workloads import VerificationError, get, workload_ids
from repro.util.rng import DEFAULT_SEED
from tests.reference_search import unpruned_tuners

WORKLOADS = sorted(workload_ids())

#: Small sizes where the in-test references are cheap to evaluate.
GOLDEN_N = {
    "mergesort": 256,
    "quicksort": 256,
    "closest_pair": 128,
    "strassen": 16,
    "fft": 64,
    "matmul": 16,
}


def _run_schedule(run, planner=AdvancedSchedule):
    plan = planner().plan(run.workload, HPU1.parameters)
    executor = ScheduleExecutor(HPU1, run.workload)
    if planner is BasicSchedule:
        return executor.run_basic(plan)
    return executor.run_advanced(plan)


class TestGoldenSizesCoverRoster:
    def test_every_registered_workload_has_a_golden_size(self):
        assert sorted(GOLDEN_N) == WORKLOADS


@pytest.mark.parametrize("workload_id", WORKLOADS)
class TestHostRunLifecycle:
    def test_verify_fails_before_any_schedule_runs(self, workload_id):
        run = get(workload_id).host_run(GOLDEN_N[workload_id])
        with pytest.raises(VerificationError):
            run.verify()

    def test_advanced_run_passes_adapter_verify(self, workload_id):
        run = get(workload_id).host_run(GOLDEN_N[workload_id])
        _run_schedule(run)
        run.verify()

    def test_basic_run_passes_adapter_verify(self, workload_id):
        run = get(workload_id).host_run(GOLDEN_N[workload_id])
        _run_schedule(run, planner=BasicSchedule)
        run.verify()

    def test_host_runs_are_seed_deterministic(self, workload_id):
        entry = get(workload_id)
        n = GOLDEN_N[workload_id]
        first = entry.host_run(n, seed=7)
        second = entry.host_run(n, seed=7)
        assert first.workload.name == second.workload.name
        assert first.workload.level_cost == second.workload.level_cost


class TestIndependentReferences:
    """The answers themselves, checked against in-test references."""

    def _sorted_output(self, workload_id):
        n = GOLDEN_N[workload_id]
        entry = get(workload_id)
        rng = np.random.default_rng(DEFAULT_SEED)
        expected_input = rng.integers(
            0, 1 << 30, size=n, dtype=np.int64
        ).astype(np.int32)
        run = entry.host_run(n)
        _run_schedule(run)
        return run.host.array, expected_input

    def test_mergesort_sorts_a_permutation(self):
        out, original = self._sorted_output("mergesort")
        assert np.all(out[:-1] <= out[1:])
        assert np.array_equal(np.sort(original), out)

    def test_quicksort_sorts_a_permutation(self):
        out, original = self._sorted_output("quicksort")
        assert np.all(out[:-1] <= out[1:])
        assert np.array_equal(np.sort(original), out)

    def test_closest_pair_matches_brute_force(self):
        run = get("closest_pair").host_run(GOLDEN_N["closest_pair"])
        _run_schedule(run)
        pts = run.host.points
        best = np.inf
        for i in range(len(pts)):
            diff = pts[i + 1 :] - pts[i]
            if len(diff):
                best = min(best, np.sqrt((diff**2).sum(axis=1)).min())
        assert np.isclose(run.host.distance, best, rtol=1e-12)

    @pytest.mark.parametrize("workload_id", ["strassen", "matmul"])
    def test_matrix_products_match_numpy(self, workload_id):
        run = get(workload_id).host_run(GOLDEN_N[workload_id])
        _run_schedule(run)
        a, b = run.host.problems[0][0]
        assert np.allclose(run.host.product, a @ b, rtol=1e-8, atol=1e-8)

    def test_fft_matches_naive_dft(self):
        n = GOLDEN_N["fft"]
        run = get("fft").host_run(n)
        _run_schedule(run)
        signal = run.host.signal
        j, k = np.meshgrid(np.arange(n), np.arange(n))
        dft = np.exp(-2j * np.pi * j * k / n) @ signal
        assert np.allclose(run.host.spectrum, dft, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("workload_id", WORKLOADS)
class TestConformanceBands:
    """Pin each entry's oracle residual at its reference point, over
    every point the unpruned reference search runs."""

    def _conformance(self, entry):
        common._TUNERS.clear()
        deactivate()
        n = entry.default_sizes(fast=True)[-1]
        try:
            with unpruned_tuners(), tracing(Tracer()) as tr:
                common.sweep_best_operating_points(
                    [(HPU1, n)],
                    alphas=common.default_alpha_grid(fast=True),
                    noise=common.MEASUREMENT_NOISE,
                    adaptive=True,
                    workload=entry.workload_id,
                )
        finally:
            common._TUNERS.clear()
        return conformance_from_attrs(
            (record.label, record.attrs) for record in tr.runs
        )

    def test_residuals_inside_the_pinned_band(self, workload_id):
        entry = get(workload_id)
        report = self._conformance(entry)
        assert report["checks"] > 0
        assert report["verdict"] == "ok"
        mean = report["mean_rel_residual"]
        assert mean <= entry.conformance_band, (
            f"{workload_id}: mean residual {mean:.4f} exceeds the "
            f"pinned band {entry.conformance_band}"
        )
        assert mean >= entry.conformance_band * 0.5, (
            f"{workload_id}: mean residual {mean:.4f} is far below the "
            f"band {entry.conformance_band}; re-pin it tighter"
        )
        assert report["max_signed_rel_residual"] <= OPTIMISM_TOLERANCE
