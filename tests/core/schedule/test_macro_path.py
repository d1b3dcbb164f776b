"""DES-vs-macro bit-identity and the macro fast path's eligibility gates.

The macro path (:mod:`repro.core.schedule.macro`) replays a whole run
in closed form instead of pumping the discrete-event core.  Its
contract is *bit-identity*: on every eligible plan the emitted
:class:`HybridRunResult` — makespan, busy totals, raw interval lists,
everything — must equal the DES's output exactly, including on plans
whose GPU tail contends for the core pool (the two-stream replay).
These tests pin that contract across a fig8-style operating grid and
parallel-tail plans, verify every escape hatch back to the DES
(``macro=False``, the reference path, a resilience config or session,
a multi-card program), pin that a traced macro run records the DES's
trace and metrics byte for byte, and check the analytic-model
conformance oracle accepts macro-path runs within the committed fig8
band.
"""

import json

import pytest

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.model.oracle import (
    DEFAULT_RESIDUAL_BAND,
    OPTIMISM_TOLERANCE,
    advanced_report,
)
from repro.core.schedule import (
    AdvancedSchedule,
    BasicSchedule,
    ScheduleExecutor,
)
from repro.core.schedule import macro as macro_module
from repro.core.schedule.extensions import plan_parallel_tail
from repro.hpu import HPU1, HPU2
from repro.obs.export import chrome_trace, metrics_json
from repro.obs.tracer import Tracer, tracing
from repro.util.rng import NoiseModel

PLATFORMS = {"hpu1": HPU1, "hpu2": HPU2}
SIZES = [1 << 10, 1 << 14, 1 << 18]
ALPHAS = [None, 0.1, 0.2, 0.35]  # None: the model's optimum


def _advanced_pair(hpu, n, alpha, noise=None, transfer_level=None):
    """(macro result or None, DES result) for one operating point."""
    workload = make_mergesort_workload(n)
    plan = AdvancedSchedule().plan(
        workload, hpu.parameters, alpha=alpha, transfer_level=transfer_level
    )
    kwargs = {} if noise is None else {"noise": noise}
    des = ScheduleExecutor(
        hpu, workload, macro=False, **kwargs
    ).run_advanced(plan)
    mac_executor = ScheduleExecutor(hpu, workload, **kwargs)
    mac = macro_module.try_macro_advanced(mac_executor, plan)
    return mac, des


class TestAdvancedBitIdentity:
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_macro_equals_des(self, platform, n, alpha):
        mac, des = _advanced_pair(PLATFORMS[platform], n, alpha)
        if mac is None:
            pytest.skip("point bails to the DES (tie at tail start)")
        assert mac == des  # every HybridRunResult field, bit for bit

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize(
        "alpha,transfer_level", [(0.35, 16), (0.5, 14), (0.5, 16)]
    )
    def test_contended_replay_points(
        self, platform, alpha, transfer_level, monkeypatch
    ):
        """Late transfer levels make the GPU tail race the CPU side:
        the two-stream replay arm must run and stay bit-identical."""
        replays = []
        original = macro_module._replay_tail_contention

        def counting(*args, **kwargs):
            out = original(*args, **kwargs)
            replays.append(out is not None)
            return out

        monkeypatch.setattr(
            macro_module, "_replay_tail_contention", counting
        )
        mac, des = _advanced_pair(
            PLATFORMS[platform], 1 << 18, alpha,
            transfer_level=transfer_level,
        )
        assert replays, "point did not contend for the core pool"
        if mac is None:
            pytest.skip("point bails to the DES (tie at tail start)")
        assert mac == des

    def test_full_run_path_matches_forced_des(self):
        """run_advanced with macro on equals the same run with it off."""
        workload = make_mergesort_workload(1 << 14)
        plan = AdvancedSchedule().plan(workload, HPU1.parameters)
        auto = ScheduleExecutor(HPU1, workload).run_advanced(plan)
        forced = ScheduleExecutor(
            HPU1, workload, macro=False
        ).run_advanced(plan)
        assert auto == forced

    def test_identity_holds_under_measurement_noise(self):
        """Keyed noise must replay identically (same keys, same eps)."""
        noise = NoiseModel(amplitude=0.015)
        mac, des = _advanced_pair(HPU1, 1 << 14, 0.2, noise=noise)
        assert mac is not None
        assert mac == des


class TestBasicAndCpuOnlyBitIdentity:
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    def test_basic_macro_equals_des(self, platform, n):
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(n)
        plan = BasicSchedule().plan(workload, hpu.parameters)
        des = ScheduleExecutor(hpu, workload, macro=False).run_basic(plan)
        mac = macro_module.try_macro_basic(
            ScheduleExecutor(hpu, workload), plan
        )
        assert mac is not None
        assert mac == des

    @pytest.mark.parametrize("n", SIZES)
    def test_cpu_only_macro_equals_des(self, n):
        workload = make_mergesort_workload(n)
        des = ScheduleExecutor(
            HPU1, workload, macro=False
        ).run_cpu_only()
        mac = macro_module.try_macro_cpu_only(
            ScheduleExecutor(HPU1, workload)
        )
        assert mac is not None
        assert mac == des


#: Counters of DES work (events processed, processes spawned): the only
#: metrics a macro-replayed run leaves out.
DES_ONLY = ("sim.events", "sim.processes")


def _traced(runs):
    """Trace ``runs`` (callables) under one fresh tracer.

    Returns (results, Chrome trace bytes, run attrs, metrics document
    without the DES-only counters, whether any run took the DES).
    """
    tracer = Tracer()
    with tracing(tracer):
        results = [run() for run in runs]
    metrics = metrics_json(tracer)
    des_events = tracer.metrics.counter("sim.events").total()
    for name in DES_ONLY:
        metrics["summary"].pop(name, None)
        metrics["metrics"].pop(name, None)
    return (
        results,
        json.dumps(chrome_trace(tracer)),
        [(r.label, r.offset, r.duration, r.attrs) for r in tracer.runs],
        metrics,
        des_events > 0,
    )


def _plan_runs(hpu, workload, points, macro, warm=False):
    """One executor running every (kind, arg) point in order; ``warm``
    runs them once untraced first, filling the executor's caches."""
    executor = ScheduleExecutor(hpu, workload, macro=macro)
    runs = []
    for kind, arg in points:
        if kind == "advanced":
            runs.append(lambda p=arg: executor.run_advanced(p))
        elif kind == "basic":
            runs.append(lambda p=arg: executor.run_basic(p))
        elif kind == "tail":
            runs.append(lambda p=arg: executor.run_advanced_parallel_tail(p))
        else:
            runs.append(lambda c=arg: executor.run_cpu_only(c))
    if warm:
        for run in runs:
            run()
    return runs


def _tail_plan(hpu, workload, alpha, climb):
    """A parallel-tail plan whose GPU hands back ``climb`` levels above
    the split level (capped at its switch level), leaving a CPU tail."""
    base = AdvancedSchedule().plan(workload, hpu.parameters, alpha=alpha)
    plan = plan_parallel_tail(base, workload, hpu.parameters)
    stop = min(base.split_level + climb, plan.switch_level)
    return plan_parallel_tail(base, workload, hpu.parameters, stop_level=stop)


def _assert_traced_identity(hpu, workload, points, warm=False):
    des = _traced(_plan_runs(hpu, workload, points, macro=False, warm=warm))
    mac = _traced(_plan_runs(hpu, workload, points, macro=None, warm=warm))
    if mac[4]:
        pytest.skip("a run bailed to the DES (same-timestamp tie)")
    assert mac[0] == des[0]  # results
    assert mac[1] == des[1]  # Chrome trace, byte for byte
    assert mac[2] == des[2]  # run records and their attrs
    assert mac[3] == des[3]  # metrics, summary included


class TestTracedBitIdentity:
    """A traced macro run records exactly what its DES twin records.

    Same Chrome trace bytes (rows in DES event order, hence the same
    lane ids), same run records (with the tuner-style annotations and
    the conformance oracle's attrs), same metrics document — apart
    from ``sim.events``/``sim.processes``, which count DES work only.
    """

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_advanced_grid(self, platform, n, alpha):
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(n)
        plan = AdvancedSchedule().plan(workload, hpu.parameters, alpha=alpha)
        _assert_traced_identity(hpu, workload, [("advanced", plan)])

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize(
        "alpha,transfer_level", [(0.35, 16), (0.5, 14), (0.5, 16)]
    )
    def test_contended_tail(self, platform, alpha, transfer_level,
                            monkeypatch):
        replays = []
        original = macro_module._replay_tail_contention

        def counting(*args, **kwargs):
            out = original(*args, **kwargs)
            replays.append(out is not None)
            return out

        monkeypatch.setattr(
            macro_module, "_replay_tail_contention", counting
        )
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(1 << 18)
        plan = AdvancedSchedule().plan(
            workload, hpu.parameters, alpha=alpha,
            transfer_level=transfer_level,
        )
        _assert_traced_identity(hpu, workload, [("advanced", plan)])
        assert replays, "point did not contend for the core pool"

    @pytest.mark.parametrize("n", [1 << 10, 1 << 14, 1 << 21])
    @pytest.mark.parametrize("cores", [None, 1, 3])
    def test_cpu_only_with_cores(self, n, cores):
        """Three cores give heterogeneous worker teams; 2^21 elements
        overflow the last-level cache (LLC-pressure counters)."""
        workload = make_mergesort_workload(n)
        _assert_traced_identity(HPU1, workload, [("cpu", cores)])

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    def test_basic(self, platform, n):
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(n)
        points = [("basic", BasicSchedule().plan(workload, hpu.parameters))]
        _assert_traced_identity(hpu, workload, points)

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("warm", [False, True])
    def test_many_runs_on_one_tracer(self, platform, warm):
        """A sweep-like sequence on one tracer and one executor: label
        first-touch order, shared attr dicts and run offsets carry
        across runs exactly as in the DES — also on an executor whose
        caches untraced runs filled first."""
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(1 << 15)
        schedule = AdvancedSchedule()
        points = [("cpu", None), ("cpu", 3)]
        points.append(("basic", BasicSchedule().plan(workload, hpu.parameters)))
        for alpha in (0.05, 0.1, 0.2, 0.35):
            for level in (workload.k - 6, workload.k - 2, workload.k):
                points.append((
                    "advanced",
                    schedule.plan(
                        workload, hpu.parameters, alpha=alpha,
                        transfer_level=level,
                    ),
                ))
        _assert_traced_identity(hpu, workload, points, warm=warm)

    def test_traced_sweep_takes_the_macro_path(self, monkeypatch):
        """A traced tuner sweep replays on the macro path and records
        what the same sweep records through the DES."""
        from repro.core.autotune import AutoTuner

        def sweep():
            workload = make_mergesort_workload(1 << 16)
            tuner = AutoTuner(HPU2, workload)
            return tuner.tune_adaptive(
                alphas=[0.04, 0.12, 0.2, 0.28, 0.36],
                levels=range(workload.k - 8, workload.k + 1),
            )

        mac = _traced([sweep])
        assert not mac[4], "traced sweep ran the DES"
        monkeypatch.setattr(macro_module, "macro_enabled", lambda x: False)
        des = _traced([sweep])
        assert des[4]
        assert mac[0] == des[0]
        assert mac[1] == des[1]
        assert mac[2] == des[2]
        assert mac[3] == des[3]

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", [1 << 14, 1 << 18])
    @pytest.mark.parametrize("alpha", [None, 0.2, 0.5])
    @pytest.mark.parametrize("climb", [0, 6])
    def test_parallel_tail(self, platform, n, alpha, climb):
        """Tail plans replay, traced: the GPU climbs to the split level
        (climb 0) or hands back up to six levels above it, leaving a
        CPU tail."""
        hpu = PLATFORMS[platform]
        workload = make_mergesort_workload(n)
        points = [("tail", _tail_plan(hpu, workload, alpha, climb))]
        mac = _traced(_plan_runs(hpu, workload, points, macro=None))
        assert not mac[4], "the tail run took the DES"
        _assert_traced_identity(hpu, workload, points)

    def test_contended_parallel_tail(self, monkeypatch):
        replays = []
        original = macro_module._replay_tail_contention

        def counting(*args, **kwargs):
            out = original(*args, **kwargs)
            replays.append(out is not None)
            return out

        monkeypatch.setattr(
            macro_module, "_replay_tail_contention", counting
        )
        workload = make_mergesort_workload(1 << 18)
        plan = _tail_plan(HPU2, workload, 0.5, 6)
        _assert_traced_identity(HPU2, workload, [("tail", plan)])
        assert replays == [True]
        untraced = ScheduleExecutor(HPU2, workload)
        des = ScheduleExecutor(HPU2, workload, macro=False)
        assert untraced.run_advanced_parallel_tail(plan) == (
            des.run_advanced_parallel_tail(plan)
        )

    def test_tail_sequence_on_one_tracer(self):
        """Advanced and tail runs interleaved on one executor share its
        level caches, which key on the kernels' ``parallel`` flag."""
        workload = make_mergesort_workload(1 << 16)
        schedule = AdvancedSchedule()
        points = []
        for alpha in (0.1, 0.3):
            base = schedule.plan(workload, HPU1.parameters, alpha=alpha)
            points.append(("advanced", base))
            points.append(("tail", _tail_plan(HPU1, workload, alpha, 0)))
            points.append(("tail", _tail_plan(HPU1, workload, alpha, 3)))
        _assert_traced_identity(HPU1, workload, points)
        _assert_traced_identity(HPU1, workload, points, warm=True)


def test_traced_dual_card_run_equals_untraced():
    """Multi-card runs stay on the DES, traced or not, and tracing one
    changes nothing in its result."""
    from repro.hpu.multi import dual_card

    duo = dual_card(HPU1)
    workload = make_mergesort_workload(1 << 16)
    plan = AdvancedSchedule().plan(workload, duo.parameters, alpha=0.2)
    untraced = ScheduleExecutor(duo, workload).run_advanced_multi(plan)
    tracer = Tracer()
    with tracing(tracer):
        traced = ScheduleExecutor(duo, workload).run_advanced_multi(plan)
    assert traced == untraced
    assert traced.gpu_busy_override == untraced.gpu_busy_override
    assert tracer.metrics.counter("sim.events").total() > 0
    lanes = {row[4] for row in tracer.span_rows if row[1] == "gpu.kernel"}
    assert lanes == {card.trace.name for card in duo.make_gpu_devices()}


def test_multi_card_program_bails_to_the_des():
    """The replay refuses a striped program: the cards' transfers queue
    FIFO on the shared host link, which only the DES orders."""
    from repro.core.schedule import program
    from repro.hpu.multi import dual_card

    duo = dual_card(HPU1)
    executor = ScheduleExecutor(duo, make_mergesort_workload(1 << 14))
    plan = AdvancedSchedule().plan(executor.workload, duo.parameters)
    striped = program.multi(duo, executor.workload, plan)
    assert striped.striped and len(striped.chains) == 2
    assert macro_module.replay(executor, striped) is None


class TestEligibilityGates:
    def _executor(self, **kwargs):
        return ScheduleExecutor(
            HPU1, make_mergesort_workload(1 << 12), **kwargs
        )

    def test_default_executor_is_eligible(self):
        assert macro_module.macro_enabled(self._executor())

    def test_macro_false_forces_des(self):
        assert not macro_module.macro_enabled(self._executor(macro=False))

    def test_reference_path_forces_des(self):
        assert not macro_module.macro_enabled(self._executor(fast=False))

    def test_active_tracer_keeps_macro_eligible(self):
        executor = self._executor()
        with tracing(Tracer()):
            assert macro_module.macro_enabled(executor)
        assert macro_module.macro_enabled(executor)

    def test_fault_plan_or_session_forces_des(self):
        from repro.resilience import NO_FAULTS, ResilienceConfig, resilient

        config = ResilienceConfig(plan=NO_FAULTS)
        with tracing(Tracer()):
            assert not macro_module.macro_enabled(
                self._executor(resilience=config)
            )
            executor = self._executor()
            with resilient(config):
                assert not macro_module.macro_enabled(executor)
            assert macro_module.macro_enabled(executor)


class TestMacroConformance:
    """The model oracle accepts macro-path runs in the fig8 band.

    The pinned fig8 population band
    (``tests/obs/test_conformance_pinned.py``) is measured traced, i.e.
    over DES runs.  These tests transfer it to the macro path: the
    oracle must produce *identical* residuals for a macro run and its
    DES twin (so the pinned aggregates apply verbatim), predictions
    must never be optimistic, and the sizes the band was calibrated on
    must conform point-wise.  Small ``n`` is transfer-dominated — the
    pinned suite's known worst region — so there only ``< 1.0`` holds.
    """

    def _report(self, hpu, n, macro):
        workload = make_mergesort_workload(n)
        schedule = AdvancedSchedule()
        plan = schedule.plan(workload, hpu.parameters)
        executor = ScheduleExecutor(hpu, workload, macro=macro)
        if macro is not False:
            assert macro_module.macro_enabled(executor)
        result = executor.run_advanced(plan)
        ctx = schedule._context(workload, hpu.parameters)
        return advanced_report(
            ctx,
            plan.effective_alpha,
            plan.transfer_level,
            result.makespan,
        )

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    def test_oracle_cannot_distinguish_macro_from_des(self, platform, n):
        hpu = PLATFORMS[platform]
        via_macro = self._report(hpu, n, macro=None)
        via_des = self._report(hpu, n, macro=False)
        assert via_macro == via_des

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("n", SIZES)
    def test_macro_predictions_never_optimistic(self, platform, n):
        report = self._report(PLATFORMS[platform], n, macro=None)
        assert report.residual_rel_signed <= OPTIMISM_TOLERANCE
        assert report.residual_rel < 1.0

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    def test_macro_runs_in_band_at_calibrated_size(self, platform):
        report = self._report(PLATFORMS[platform], 1 << 18, macro=None)
        assert report.verdict(DEFAULT_RESIDUAL_BAND) == "ok"
        assert report.residual_rel <= DEFAULT_RESIDUAL_BAND
