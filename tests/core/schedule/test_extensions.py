"""Tests for the Section-7 future-work extensions."""

import numpy as np
import pytest

from repro.algorithms.mergesort.hybrid import (
    MergesortHost,
    hybrid_mergesort,
    make_mergesort_workload,
)
from repro.core.schedule import AdvancedSchedule, ScheduleExecutor
from repro.core.schedule.extensions import (
    ParallelTailPlan,
    leaf_block_levels,
    plan_parallel_tail,
    sequential_block_cost,
)
from repro.errors import ScheduleError, SpecError
from repro.hpu import HPU1
from repro.util.rng import make_rng


class TestParallelTailPlanning:
    def test_switch_at_saturation_boundary(self):
        w = make_mergesort_workload(1 << 24)
        base = AdvancedSchedule().plan(w, HPU1.parameters, alpha=0.16, transfer_level=10)
        plan = plan_parallel_tail(base, w, HPU1.parameters)
        # g=4096, share=0.84 -> saturation at ceil(log2(4096/0.84)) = 13
        assert plan.switch_level == 13
        assert plan.stop_level == base.split_level

    def test_explicit_stop_level(self):
        w = make_mergesort_workload(1 << 20)
        base = AdvancedSchedule().plan(w, HPU1.parameters, alpha=0.2, transfer_level=10)
        plan = plan_parallel_tail(base, w, HPU1.parameters, stop_level=8)
        assert plan.stop_level == 8

    def test_invalid_orders_rejected(self):
        w = make_mergesort_workload(1 << 20)
        base = AdvancedSchedule().plan(w, HPU1.parameters, alpha=0.2, transfer_level=10)
        with pytest.raises(ScheduleError):
            ParallelTailPlan(base=base, switch_level=5, stop_level=9)
        with pytest.raises(ScheduleError):
            ParallelTailPlan(
                base=base, switch_level=9, stop_level=base.split_level - 1
            )


class TestParallelTailExecution:
    def test_beats_plain_advanced_at_scale(self):
        """The §7 claim: parallel kernels above saturation help."""
        w = make_mergesort_workload(1 << 24)
        executor = ScheduleExecutor(HPU1, w)
        base_plan = AdvancedSchedule().plan(w, HPU1.parameters)
        base = executor.run_advanced(base_plan)
        ext = executor.run_advanced_parallel_tail(
            plan_parallel_tail(base_plan, w, HPU1.parameters)
        )
        assert ext.speedup > base.speedup
        assert ext.transfer_time == pytest.approx(base.transfer_time)  # still 2

    def test_functional_correctness(self):
        rng = make_rng(41)
        data = rng.integers(0, 10**6, size=1 << 12)
        out, result = hybrid_mergesort(
            data, HPU1, strategy="parallel-tail", strict=True
        )
        assert (out == np.sort(data)).all()
        assert result.makespan > 0

    def test_requires_workload_support(self):
        from repro.core.recursion_tree import RecursionTree
        from repro.algorithms.mergesort.recursive import mergesort_spec
        from repro.core.schedule.workload import DCWorkload

        w = DCWorkload.from_tree(RecursionTree(mergesort_spec(), 1 << 12))
        with pytest.raises(ScheduleError, match="no parallel kernels"):
            w.gpu_parallel_steps(3, 8)


class TestLeafBlocks:
    def test_level_arithmetic(self):
        assert leaf_block_levels(1 << 20, 1) == 20
        assert leaf_block_levels(1 << 20, 64) == 14
        with pytest.raises(ScheduleError):
            leaf_block_levels(100, 4)
        with pytest.raises(ScheduleError):
            leaf_block_levels(16, 16)

    def test_block_cost_matches_collapsed_levels(self):
        """S(log2 S + 1): same total work as the levels it replaces."""
        assert sequential_block_cost(1) == 1.0
        assert sequential_block_cost(64) == 64 * 7
        with pytest.raises(ScheduleError):
            sequential_block_cost(3)

    def test_workload_geometry_with_blocks(self):
        w = make_mergesort_workload(1 << 16, leaf_block=64)
        assert w.k == 10
        assert w.leaf_tasks == (1 << 16) // 64
        assert w.leaf_cost == 64 * 7.0

    def test_total_work_invariant(self):
        """Blocks reorganize the work; they do not change its amount."""
        n = 1 << 16
        plain = ScheduleExecutor(HPU1, make_mergesort_workload(n))
        blocked = ScheduleExecutor(
            HPU1, make_mergesort_workload(n, leaf_block=256)
        )
        assert plain.sequential_ops() == pytest.approx(blocked.sequential_ops())

    @pytest.mark.parametrize("leaf_block", [4, 64])
    def test_functional_correctness(self, leaf_block):
        rng = make_rng(43, leaf_block)
        data = rng.integers(-(10**6), 10**6, size=1 << 11)
        out, _ = hybrid_mergesort(
            data, HPU1, leaf_block=leaf_block, strict=True
        )
        assert (out == np.sort(data)).all()

    def test_blocks_help_small_inputs_cpu_only(self):
        """Fewer level batches -> fewer spawn overheads on small runs."""
        n = 1 << 12
        plain = ScheduleExecutor(HPU1, make_mergesort_workload(n))
        blocked = ScheduleExecutor(
            HPU1, make_mergesort_workload(n, leaf_block=256)
        )
        assert blocked.run_cpu_only().speedup > plain.run_cpu_only().speedup

    def test_host_workload_mismatch_rejected(self):
        host = MergesortHost(np.arange(1 << 10), leaf_block=4)
        with pytest.raises(ScheduleError, match="leaf_block"):
            make_mergesort_workload(1 << 10, host=host, leaf_block=8)

    def test_host_validation(self):
        with pytest.raises(SpecError):
            MergesortHost(np.arange(16), leaf_block=16)
        with pytest.raises(SpecError):
            MergesortHost(np.arange(16), leaf_block=3)


#: Parallel-tail runs on HPU1 at the model's plan, under keyed noise
#: (see tests/core/schedule/run_pins.py), pinned from the per-strategy
#: DES drivers the executor had before every strategy compiled to one
#: step program.  The replay and the DES must both reproduce them.
PINNED_TAIL = {
    ("mergesort", 1 << 16): {
        "makespan": "0x1.205f22ee3a510p+19",
        "cpu_side_time": "0x1.86e0000000000p+15",
        "gpu_side_time": "0x1.a8321af286bc8p+18",
        "gpu_kernel_time": "0x1.1c8a1af286bcap+18",
        "transfer_time": "0x1.1750000000000p+17",
        "cpu_intervals": "63:ea6281fc19cec886",
        "gpu_intervals": "20:34d8d209fb3bf314",
        "recovery": (), "events": 59.0, "processes": 3.0,
    },
    ("mergesort", 1 << 20): {
        "makespan": "0x1.0399ee71d356ap+22",
        "cpu_side_time": "0x1.8be8000000000p+19",
        "gpu_side_time": "0x1.d55bf39aad8a7p+20",
        "gpu_kernel_time": "0x1.0e39a1af286bep+20",
        "transfer_time": "0x1.8e44a3d70a3d7p+19",
        "cpu_intervals": "78:bdc8e93d23a805fb",
        "gpu_intervals": "32:023d969653ba0962",
        "recovery": (), "events": 77.0, "processes": 3.0,
    },
    ("matmul", 256): {
        "makespan": "0x1.56d47d34629edp+22",
        "cpu_side_time": "0x1.673b800000000p+20",
        "gpu_side_time": "0x1.55d694e25b9f1p+22",
        "gpu_kernel_time": "0x1.4cd8e1af286bdp+22",
        "transfer_time": "0x1.1fb6666666666p+17",
        "cpu_intervals": "28:496ac83c8ef30f82",
        "gpu_intervals": "8:cc2cca10e714f463",
        "recovery": (), "events": 27.0, "processes": 3.0,
    },
}


@pytest.mark.parametrize(
    "algorithm,size", sorted(PINNED_TAIL), ids=lambda v: str(v)
)
def test_parallel_tail_runs_match_their_pins(algorithm, size):
    from repro.workloads import get

    from tests.core.schedule.run_pins import pinned_run

    w = get(algorithm).workload(size)
    base = AdvancedSchedule().plan(w, HPU1.parameters)
    plan = plan_parallel_tail(base, w, HPU1.parameters)
    pins = pinned_run(HPU1, w, "run_advanced_parallel_tail", plan)
    assert pins == PINNED_TAIL[algorithm, size]
