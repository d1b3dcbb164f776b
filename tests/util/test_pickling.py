"""Value types that cross process boundaries must pickle faithfully.

The serve daemon runs each job in a process-pool worker and ships the
worker's fresh tuner memos back (``export_tuner_state``): keys carry a
:class:`~repro.util.rng.NoiseModel`, values carry run results.  These
tests pin the round-trip per object class so a future unpicklable or
unhashable field fails here rather than deep inside a served job.
"""

import pickle

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.experiments.common import (
    MEASUREMENT_NOISE,
    sweep_best_operating_point,
)
from repro.hpu import HPU1, HPU2
from repro.util.rng import NO_NOISE, NoiseModel


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestPlatformPickling:
    def test_hpu_presets_round_trip(self):
        for hpu in (HPU1, HPU2):
            clone = _roundtrip(hpu)
            assert clone.name == hpu.name
            assert clone.cpu_spec == hpu.cpu_spec
            assert clone.gpu_spec == hpu.gpu_spec


class TestNoiseModelPickling:
    def test_round_trip_equality(self):
        for noise in (NO_NOISE, MEASUREMENT_NOISE, NoiseModel(0.05, seed=7)):
            assert _roundtrip(noise) == noise

    def test_clone_draws_identical_jitter(self):
        clone = _roundtrip(MEASUREMENT_NOISE)
        key = ("HPU1", 1 << 20, 0.25)
        assert clone.apply(1.0, *key) == MEASUREMENT_NOISE.apply(1.0, *key)

    def test_hashable_cache_key_survives(self):
        # _TUNERS keys on (hpu.name, workload, n, noise): the clone must
        # land in the same dict slot as the original.
        assert hash(_roundtrip(NO_NOISE)) == hash(NO_NOISE)


class TestWorkloadPickling:
    def test_mergesort_workload_round_trips(self):
        workload = make_mergesort_workload(1 << 10)
        clone = _roundtrip(workload)
        assert clone.name == workload.name
        assert clone.level_tasks == workload.level_tasks
        assert clone.level_cost == workload.level_cost
        assert clone.leaf_tasks == workload.leaf_tasks
        assert clone.leaf_cost == workload.leaf_cost
        assert clone.total_elements == workload.total_elements


class TestSweepPayloadPickling:
    def test_best_point_result_round_trips(self):
        best = sweep_best_operating_point(
            HPU1, 1 << 10, alphas=(0.1, 0.2), levels=(8, 9)
        )
        clone = _roundtrip(best)
        assert clone.speedup == best.speedup
        assert clone.alpha == best.alpha
        assert clone.transfer_level == best.transfer_level
        assert clone.result.makespan == best.result.makespan
