import numpy as np
import pytest

from repro.algorithms.mergesort.hybrid import (
    MergesortHost,
    make_mergesort_workload,
)
from repro.core.schedule import AdvancedSchedule, ScheduleExecutor
from repro.errors import DeviceError, ScheduleError
from repro.hpu import HPU1
from repro.hpu.multi import MultiGPUHPU, dual_card
from repro.util.rng import make_rng


class TestMultiGPUHPU:
    def test_aggregate_parameters(self):
        duo = dual_card(HPU1)
        assert duo.parameters.g == 2 * HPU1.parameters.g
        assert duo.parameters.gamma == HPU1.parameters.gamma
        assert duo.parameters.p == HPU1.parameters.p

    def test_card_devices_are_distinct(self):
        duo = dual_card(HPU1)
        cards = duo.make_gpu_devices()
        assert len(cards) == 2
        assert cards[0].spec.name != cards[1].spec.name
        cards[0].alloc(64)
        assert cards[1].memory.allocated_bytes == 0

    def test_validation(self):
        with pytest.raises(DeviceError):
            MultiGPUHPU("bad", HPU1.cpu_spec, HPU1.gpu_spec, num_cards=0)


class TestMultiGPUExecution:
    def test_functional_correctness(self):
        rng = make_rng(47)
        data = rng.integers(0, 10**6, size=1 << 11)
        host = MergesortHost(data.copy(), strict=True)
        duo = dual_card(HPU1)
        workload = make_mergesort_workload(data.size, host=host)
        executor = ScheduleExecutor(duo, workload)
        plan = AdvancedSchedule().plan(
            workload, duo.parameters, alpha=0.25, transfer_level=7
        )
        executor.run_advanced_multi(plan)
        assert (host.array == np.sort(data)).all()

    def test_footnote5_modest_gain(self):
        """A second card helps only modestly for mergesort at 2^24 —
        the paper's footnote-5 rationale, quantified."""
        n = 1 << 24
        single = ScheduleExecutor(HPU1, make_mergesort_workload(n))
        r1 = single.run_advanced(
            AdvancedSchedule().plan(single.workload, HPU1.parameters)
        )
        duo = dual_card(HPU1)
        dual_exec = ScheduleExecutor(duo, make_mergesort_workload(n))
        r2 = dual_exec.run_advanced_multi(
            AdvancedSchedule().plan(dual_exec.workload, duo.parameters)
        )
        assert r2.speedup > r1.speedup  # it does help...
        assert r2.speedup < 1.15 * r1.speedup  # ...but under 15%

    def test_transfers_serialize_on_shared_link(self):
        """Total transfer time equals the sum over cards (no overlap)."""
        n = 1 << 16
        duo = dual_card(HPU1)
        workload = make_mergesort_workload(n)
        executor = ScheduleExecutor(duo, workload)
        plan = AdvancedSchedule().plan(
            workload, duo.parameters, alpha=0.25, transfer_level=10
        )
        result = executor.run_advanced_multi(plan)
        gpu_leaves = workload.leaf_tasks - plan.cpu_leaf_tasks(workload)
        half = [gpu_leaves // 2 + (gpu_leaves % 2), gpu_leaves // 2]
        expected = sum(
            2 * duo.transfer_time(workload.words_for_tasks("leaves", h))
            for h in half
        )
        assert result.transfer_time == pytest.approx(expected)

    def test_single_card_platform_rejected(self):
        executor = ScheduleExecutor(HPU1, make_mergesort_workload(1 << 12))
        plan = AdvancedSchedule().plan(
            executor.workload, HPU1.parameters, alpha=0.25, transfer_level=8
        )
        with pytest.raises(ScheduleError, match="not a multi-GPU"):
            executor.run_advanced_multi(plan)


#: Dual-card runs on HPU1x2 at the model's transfer level, under keyed
#: noise (see tests/core/schedule/run_pins.py), pinned from the
#: per-strategy DES drivers the executor had before every strategy
#: compiled to one step program.
PINNED_DUAL = {
    (1 << 16, 0.2): {
        "makespan": "0x1.761067d6d267cp+19",
        "cpu_side_time": "0x1.56e0000000000p+15",
        "gpu_side_time": "0x1.10b21f424a601p+19",
        "gpu_kernel_time": "0x1.6e25af286bca1p+19",
        "transfer_time": "0x1.ddfc28f5c28f6p+17",
        "cpu_intervals": "78:9bc8ad6d13b0248f",
        "gpu_intervals": "48:5acd53e19aeb4cb1",
        "recovery": (), "events": 96.0, "processes": 5.0,
    },
    (1 << 16, 0.35): {
        "makespan": "0x1.900396708f3d0p+19",
        "cpu_side_time": "0x1.5964000000000p+16",
        "gpu_side_time": "0x1.3675f7ea712dcp+19",
        "gpu_kernel_time": "0x1.c13cbca1af285p+19",
        "transfer_time": "0x1.c9d3333333333p+17",
        "cpu_intervals": "78:0f7440c54d0c2d46",
        "gpu_intervals": "54:040ffc5c5b99209a",
        "recovery": (), "events": 102.0, "processes": 5.0,
    },
    (1 << 20, 0.2): {
        "makespan": "0x1.40ba0424ff87ep+22",
        "cpu_side_time": "0x1.8be8000000000p+19",
        "gpu_side_time": "0x1.eaca8e48380d0p+20",
        "gpu_kernel_time": "0x1.432150d79435ep+21",
        "transfer_time": "0x1.bf18a3d70a3d7p+19",
        "cpu_intervals": "94:4ea28159c761230f",
        "gpu_intervals": "72:8ca77f2fa62d63b2",
        "recovery": (), "events": 128.0, "processes": 5.0,
    },
    (1 << 20, 0.35): {
        "makespan": "0x1.483e92be3db52p+22",
        "cpu_side_time": "0x1.a213400000000p+20",
        "gpu_side_time": "0x1.3764ced230816p+21",
        "gpu_kernel_time": "0x1.e55dd0d79435cp+21",
        "transfer_time": "0x1.6e74ccccccccdp+19",
        "cpu_intervals": "94:44f6f9e8ccd6b560",
        "gpu_intervals": "78:22d80396ddc8a325",
        "recovery": (), "events": 134.0, "processes": 5.0,
    },
}


@pytest.mark.parametrize("n,alpha", sorted(PINNED_DUAL), ids=str)
def test_dual_card_runs_match_their_pins(n, alpha):
    from tests.core.schedule.run_pins import pinned_run

    duo = dual_card(HPU1)
    workload = make_mergesort_workload(n)
    plan = AdvancedSchedule().plan(workload, duo.parameters, alpha=alpha)
    pins = pinned_run(duo, workload, "run_advanced_multi", plan)
    assert pins == PINNED_DUAL[n, alpha]
