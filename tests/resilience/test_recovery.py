"""Integration: faults + policies driving real schedule-executor runs.

The acceptance criterion of the resilience layer: a fault plan that
permanently kills the GPU mid-run must leave ``run_advanced`` /
``run_basic`` completing on the CPU with a correctly sorted result and
a recovery ledger explaining what happened.
"""

import numpy as np
import pytest

from repro.algorithms.mergesort.hybrid import (
    MergesortHost,
    make_mergesort_workload,
)
from repro.core.schedule import (
    AdvancedSchedule,
    BasicSchedule,
    ScheduleExecutor,
)
from repro.errors import (
    DeviceLostError,
    DeviceTimeoutError,
    KernelError,
    TransferError,
)
from repro.hpu import HPU1
from repro.resilience import (
    DegradePolicy,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
    TimeoutPolicy,
    resilient,
    uninstall,
)
from repro.util.rng import make_rng

pytestmark = pytest.mark.chaos

N = 1 << 12


@pytest.fixture(autouse=True)
def _clean_session_state():
    uninstall()
    yield
    uninstall()


def sorting_run(n=N, seed=7):
    """A workload whose host array really gets sorted."""
    rng = make_rng(seed, "resilience-tests")
    host = MergesortHost(rng.integers(0, 1 << 30, size=n))
    return host, make_mergesort_workload(n, host=host)


def advanced(executor, workload):
    return executor.run_advanced(
        AdvancedSchedule().plan(workload, HPU1.parameters)
    )


def baseline_makespan(n=N):
    _, w = sorting_run(n)
    return advanced(ScheduleExecutor(HPU1, w), w).makespan


GPU_DIES = ResilienceConfig(
    plan=FaultPlan(
        name="gpu-dies",
        faults=(FaultSpec(site="device", device="gpu", at_time=1.0),),
    )
)


class TestCpuFallback:
    def test_advanced_completes_sorted_after_gpu_loss(self):
        host, w = sorting_run()
        result = advanced(ScheduleExecutor(HPU1, w, resilience=GPU_DIES), w)
        assert np.all(np.diff(host.array) >= 0)
        kinds = [a.kind for a in result.recovery]
        assert "device-lost" in kinds
        assert kinds[-1] == "cpu-fallback"
        assert result.makespan > 0

    def test_basic_completes_sorted_after_gpu_loss(self):
        host, w = sorting_run()
        result = ScheduleExecutor(HPU1, w, resilience=GPU_DIES).run_basic(
            BasicSchedule().plan(w, HPU1.parameters)
        )
        assert np.all(np.diff(host.array) >= 0)
        assert [a.kind for a in result.recovery][-1] == "cpu-fallback"

    def test_fallback_batches_are_tagged(self):
        from repro.obs.tracer import Tracer, tracing

        host, w = sorting_run()
        executor = ScheduleExecutor(HPU1, w, resilience=GPU_DIES, fast=False)
        with tracing(Tracer(name="fallback")) as tr:
            advanced(executor, w)
        assert np.all(np.diff(host.array) >= 0)
        tags = {s.name for s in tr.spans if s.name.startswith("fallback:")}
        assert tags, "no fallback batches recorded"

    def test_degrade_disabled_raises_typed_error(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=GPU_DIES.plan, degrade=DegradePolicy(cpu_fallback=False)
        )
        with pytest.raises(DeviceLostError):
            advanced(ScheduleExecutor(HPU1, w, resilience=config), w)

    def test_executor_reusable_after_failed_run(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=GPU_DIES.plan, degrade=DegradePolicy(cpu_fallback=False)
        )
        executor = ScheduleExecutor(HPU1, w, resilience=config)
        plan = AdvancedSchedule().plan(w, HPU1.parameters)
        # The plan is deterministic, so every run fails the same way —
        # and each failure leaves the executor in a clean state (fresh
        # per-run injector, fresh simulator).
        with pytest.raises(DeviceLostError):
            executor.run_advanced(plan)
        with pytest.raises(DeviceLostError):
            executor.run_advanced(plan)
        # The fault plan only covers the GPU: a CPU-only run on the same
        # executor completes and repairs the half-merged array.
        result = executor.run_cpu_only()
        assert result.makespan > 0
        assert np.all(np.diff(host.array) >= 0)


class TestOneFallbackPath:
    """Every strategy's device chain falls back through the same code:
    the parallel-tail run degrades like ``run_advanced``, while the
    multi-card run, whose cards share one fault lane, still raises."""

    def test_parallel_tail_completes_sorted_after_gpu_loss(self):
        from repro.core.schedule import plan_parallel_tail

        host, w = sorting_run()
        base = AdvancedSchedule().plan(w, HPU1.parameters)
        result = ScheduleExecutor(
            HPU1, w, resilience=GPU_DIES
        ).run_advanced_parallel_tail(
            plan_parallel_tail(base, w, HPU1.parameters)
        )
        assert np.all(np.diff(host.array) >= 0)
        _, w_adv = sorting_run()
        reference = advanced(
            ScheduleExecutor(HPU1, w_adv, resilience=GPU_DIES), w_adv
        )

        def shape(recovery):
            return [
                (a.kind, a.site, a.label.split(".")[-1], a.attempt, a.error)
                for a in recovery
            ]

        assert shape(result.recovery) == shape(reference.recovery)
        assert result.recovery[-1].kind == "cpu-fallback"
        assert result.recovery[-1].label == "parallel-tail.gpu-side"
        assert result.makespan > 0

    def test_dual_card_still_raises_after_gpu_loss(self):
        from repro.errors import DeviceError
        from repro.hpu.multi import dual_card

        host, w = sorting_run()
        duo = dual_card(HPU1)
        plan = AdvancedSchedule().plan(w, duo.parameters)
        with pytest.raises(DeviceError):
            ScheduleExecutor(duo, w, resilience=GPU_DIES).run_advanced_multi(
                plan
            )


class TestRetries:
    def test_backoff_charged_as_simulated_time(self):
        base = baseline_makespan()
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=FaultPlan(
                name="flaky", faults=(FaultSpec(site="kernel", times=2),)
            ),
            retry=RetryPolicy(max_retries=2, backoff=500.0, backoff_factor=2.0),
        )
        result = advanced(ScheduleExecutor(HPU1, w, resilience=config), w)
        assert np.all(np.diff(host.array) >= 0)
        # Two failed launches, backoffs 500 then 1000; injected faults
        # fail at launch time so the attempts themselves charge nothing.
        assert result.makespan == pytest.approx(base + 1500.0)
        kinds = [(a.kind, a.attempt) for a in result.recovery]
        assert kinds == [("fault", 1), ("retry", 1), ("fault", 2), ("retry", 2)]

    def test_retries_exhausted_raises(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=FaultPlan(
                name="dead-kernel",
                faults=(FaultSpec(site="kernel", times=None),),
            ),
            retry=RetryPolicy(max_retries=2),
            degrade=DegradePolicy(cpu_fallback=False),
        )
        with pytest.raises(KernelError):
            advanced(ScheduleExecutor(HPU1, w, resilience=config), w)

    def test_retries_exhausted_falls_back_when_enabled(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=FaultPlan(
                name="dead-kernel",
                faults=(FaultSpec(site="kernel", times=None),),
            ),
            retry=RetryPolicy(max_retries=1),
        )
        result = advanced(ScheduleExecutor(HPU1, w, resilience=config), w)
        assert np.all(np.diff(host.array) >= 0)
        assert [a.kind for a in result.recovery][-1] == "cpu-fallback"

    def test_transfer_faults_are_typed(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            plan=FaultPlan(
                name="bad-link",
                faults=(FaultSpec(site="transfer", times=None),),
            ),
            degrade=DegradePolicy(cpu_fallback=False),
        )
        with pytest.raises(TransferError):
            advanced(ScheduleExecutor(HPU1, w, resilience=config), w)


class TestTimeouts:
    def test_kernel_deadline_raises_typed_error(self):
        host, w = sorting_run()
        config = ResilienceConfig(
            timeout=TimeoutPolicy(kernel_deadline=1.0),
            degrade=DegradePolicy(cpu_fallback=False),
        )
        with pytest.raises(DeviceTimeoutError, match="deadline"):
            advanced(ScheduleExecutor(HPU1, w, resilience=config), w)

    def test_kernel_deadline_degrades_by_default(self):
        host, w = sorting_run()
        config = ResilienceConfig(timeout=TimeoutPolicy(kernel_deadline=1.0))
        result = advanced(ScheduleExecutor(HPU1, w, resilience=config), w)
        assert np.all(np.diff(host.array) >= 0)
        kinds = [a.kind for a in result.recovery]
        assert "timeout" in kinds and kinds[-1] == "cpu-fallback"

    def test_generous_deadline_changes_nothing(self):
        base = baseline_makespan()
        host, w = sorting_run()
        config = ResilienceConfig(
            timeout=TimeoutPolicy(kernel_deadline=1e12, transfer_deadline=1e12)
        )
        result = advanced(ScheduleExecutor(HPU1, w, resilience=config), w)
        assert result.makespan == base


class TestAmbientSession:
    def test_executor_picks_up_installed_session(self):
        host, w = sorting_run()
        with resilient(GPU_DIES) as session:
            result = advanced(ScheduleExecutor(HPU1, w), w)
        assert np.all(np.diff(host.array) >= 0)
        assert result.recovery
        # The ledger carries the same actions, tagged with the run.
        assert len(session.recovery) == len(result.recovery)
        assert all(e["run"] == "HPU1:mergesort" for e in session.recovery)

    def test_explicit_config_wins_over_session(self):
        host, w = sorting_run()
        clean = ResilienceConfig()
        with resilient(GPU_DIES):
            result = advanced(
                ScheduleExecutor(HPU1, w, resilience=clean), w
            )
        assert result.recovery == ()

    def test_queue_commands_hit_the_ambient_plan(self):
        from repro.opencl import CommandQueue, GPUDevice, GPUDeviceSpec
        from repro.sim import Simulator

        sim = Simulator()
        dev = GPUDevice(
            GPUDeviceSpec(name="g", g=64, gamma=0.1, memory_bytes=1 << 20)
        )
        queue = CommandQueue(sim, dev)
        buf = dev.alloc(8 * 16)
        plan = FaultPlan(
            name="bad-link", faults=(FaultSpec(site="transfer"),)
        )
        with resilient(plan):
            queue.enqueue_write(buf, np.arange(16, dtype=np.int64))
            with pytest.raises(TransferError):
                sim.run()

    def test_dead_device_refuses_launches(self):
        from repro.opencl import GPUDevice, GPUDeviceSpec, Kernel, NDRange

        dev = GPUDevice(
            GPUDeviceSpec(name="g", g=64, gamma=0.1, memory_bytes=1 << 20)
        )
        buf = dev.alloc(8 * 16)
        kernel = Kernel(
            name="noop",
            ops_per_item=lambda args: 1.0,
            scalar_fn=lambda gid, args: None,
        )
        plan = FaultPlan(faults=(FaultSpec(site="device", at_time=0.0),))
        with resilient(plan) as session:
            with pytest.raises(DeviceLostError):
                session.ambient_injector.check("kernel", "gpu", 0.0)
            with pytest.raises(DeviceLostError, match="was lost"):
                dev.launch(kernel, NDRange(16, 16), {"buf": buf})
        # Session gone: launches work again.
        assert dev.launch(kernel, NDRange(16, 16), {"buf": buf}) > 0


class TestRunnerFlags:
    def test_fault_plan_flag_lands_in_manifest(self, tmp_path, capsys):
        from repro.experiments import runner
        from repro.obs.manifest import RunManifest
        from repro.resilience.runtime import active

        plan = FaultPlan(
            name="cli-plan", faults=(FaultSpec(site="kernel", times=1),)
        )
        plan_path = plan.save(tmp_path / "plan.json")
        rc = runner.main(
            [
                "table1",  # cheapest experiment; flag wiring is the point
                "--fault-plan",
                str(plan_path),
                "--retry",
                "2",
                "--backoff",
                "500",
                "--deadline",
                "1e9,1e9",
                "--results-dir",
                str(tmp_path / "results"),
                "--run-id",
                "chaos",
            ]
        )
        assert rc == 0
        assert active() is None  # session uninstalled afterwards
        manifest = RunManifest.load(
            tmp_path / "results" / "chaos" / "manifest.json"
        )
        assert manifest.fault_plan["name"] == "cli-plan"
        assert isinstance(manifest.recovery, list)

    def test_recovery_actions_recorded_for_executor_experiments(
        self, tmp_path, capsys
    ):
        from repro.experiments import common, runner
        from repro.obs.manifest import RunManifest

        plan = FaultPlan(
            name="flaky-ci", faults=(FaultSpec(site="kernel", times=1),)
        )
        plan_path = plan.save(tmp_path / "plan.json")
        common._TUNERS.clear()
        try:
            rc = runner.main(
                [
                    "fig8",
                    "--fast",
                    "--fault-plan",
                    str(plan_path),
                    "--retry",
                    "2",
                    "--backoff",
                    "500",
                    "--results-dir",
                    str(tmp_path / "results"),
                    "--run-id",
                    "chaos-fig8",
                ]
            )
        finally:
            common._TUNERS.clear()
        assert rc == 0
        manifest = RunManifest.load(
            tmp_path / "results" / "chaos-fig8" / "manifest.json"
        )
        assert manifest.recovery, "no recovery actions recorded"
        kinds = {entry["kind"] for entry in manifest.recovery}
        assert "fault" in kinds and "retry" in kinds
        assert all("run" in entry for entry in manifest.recovery)

    def test_bad_fault_plan_file_is_a_cli_error(self, tmp_path, capsys):
        from repro.experiments import runner

        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(SystemExit):
            runner.main(["table1", "--fault-plan", str(bad)])
        assert "--fault-plan" in capsys.readouterr().err


class TestObservabilityIntegration:
    def test_recovery_surfaces_in_metrics_and_instants(self):
        from repro.obs.tracer import Tracer, tracing

        host, w = sorting_run()
        config = ResilienceConfig(
            plan=FaultPlan(
                name="flaky", faults=(FaultSpec(site="kernel", times=1),)
            ),
            retry=RetryPolicy(max_retries=1, backoff=100.0),
        )
        with tracing(Tracer(name="chaos")) as tr:
            advanced(ScheduleExecutor(HPU1, w, resilience=config), w)
        summary = tr.metrics.summary()
        assert summary.get("resilience.faults")
        assert summary.get("resilience.retries")
        instants = [s for s in tr.instants if s.category == "resilience"]
        assert instants, "no resilience instants recorded"
