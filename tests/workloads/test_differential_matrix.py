"""The cross-workload differential matrix (ISSUE 8).

Every registered workload must run bit-identically across the
independent execution paths the stack provides: the macro fast path
vs the discrete-event core, and traced vs untraced execution.
Mergesort earned each of these
equivalences one at a time; the registry's promise is that a new entry
inherits all of them for free, so the whole matrix runs per workload
id.
"""

import pytest

from repro.core.schedule import AdvancedSchedule, BasicSchedule, ScheduleExecutor
from repro.core.schedule import macro as macro_module
from repro.hpu import HPU1
from repro.obs.tracer import Tracer, deactivate, tracing
from repro.util.rng import NoiseModel
from repro.workloads import get, workload_ids

WORKLOADS = sorted(workload_ids())

pytestmark = pytest.mark.parametrize("workload_id", WORKLOADS)


@pytest.fixture(autouse=True)
def _clean_state():
    deactivate()
    yield
    deactivate()


def _small_n(entry):
    """A matrix-cheap size: one quarter of the entry's smallest grid point."""
    return max(entry.min_n, entry.default_sizes(fast=True)[0] // 4)


def _advanced(entry, n, **executor_kwargs):
    workload = entry.build(n)
    plan = AdvancedSchedule().plan(workload, HPU1.parameters)
    executor = ScheduleExecutor(HPU1, workload, **executor_kwargs)
    return executor, plan


class TestMacroVsDes:
    def test_advanced_bit_identity(self, workload_id):
        entry = get(workload_id)
        n = _small_n(entry)
        mac_executor, plan = _advanced(entry, n)
        mac = macro_module.try_macro_advanced(mac_executor, plan)
        des_executor, _ = _advanced(entry, n, macro=False)
        des = des_executor.run_advanced(plan)
        assert mac is not None, f"{workload_id}: macro path bailed"
        assert mac == des  # every HybridRunResult field, bit for bit

    def test_identity_holds_under_noise(self, workload_id):
        entry = get(workload_id)
        n = _small_n(entry)
        noise = NoiseModel(amplitude=0.015)
        mac_executor, plan = _advanced(entry, n, noise=noise)
        mac = macro_module.try_macro_advanced(mac_executor, plan)
        des_executor, _ = _advanced(entry, n, macro=False, noise=noise)
        des = des_executor.run_advanced(plan)
        assert mac is not None
        assert mac == des


class TestTracedVsUntraced:
    def test_advanced_results_identical(self, workload_id):
        entry = get(workload_id)
        n = _small_n(entry)
        executor, plan = _advanced(entry, n, macro=False)
        untraced = executor.run_advanced(plan)
        with tracing(Tracer()) as tr:
            traced_executor, _ = _advanced(entry, n, macro=False)
            traced = traced_executor.run_advanced(plan)
        assert traced == untraced
        assert tr.runs, "tracer observed no runs"

    def test_basic_results_identical(self, workload_id):
        entry = get(workload_id)
        n = _small_n(entry)
        workload = entry.build(n)
        plan = BasicSchedule().plan(workload, HPU1.parameters)
        untraced = ScheduleExecutor(HPU1, workload).run_basic(plan)
        with tracing(Tracer()):
            traced = ScheduleExecutor(HPU1, workload).run_basic(plan)
        assert traced == untraced


class TestHostBackedTiming:
    def test_host_hooks_do_not_move_the_makespan(self, workload_id):
        """Real data behind the hooks must not change simulated time."""
        entry = get(workload_id)
        n = _small_n(entry)
        timing_executor, plan = _advanced(entry, n, macro=False)
        timing = timing_executor.run_advanced(plan)
        run = entry.host_run(n)
        hosted = ScheduleExecutor(
            HPU1, run.workload, macro=False
        ).run_advanced(plan)
        run.verify()
        assert hosted.makespan == timing.makespan
        assert hosted.cpu_busy == timing.cpu_busy
        assert hosted.gpu_busy == timing.gpu_busy
