"""Run a schedule plan on a simulated HPU.

The executor reproduces the *implementation* behaviour of Algorithm 8
rather than the idealized analysis: the CPU side is a team of up to
``p`` workers drawing cores from a shared FIFO pool (so the GPU side's
post-transfer CPU tail really competes for cores with a still-running
CPU side, exactly like the two threads of §6.2); GPU levels are kernel
launches priced by the device cost model, each paying launch overhead;
the two transfers pay ``λ + δ·w``; and every CPU batch pays the LLC
contention factor.  That is why the executor's "measured" speedups sit
below the analytical prediction — in the paper and here (Fig. 8).

Every run also records per-device busy traces, from which the result
reports the GPU-busy to CPU-fully-busy ratio plotted as the blue line
of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional

from repro import sim as _sim
from repro.core.schedule import program as _program
from repro.core.schedule.advanced import AdvancedPlan
from repro.core.schedule.basic import BasicPlan
from repro.core.schedule.workload import LEAVES, DCWorkload, KernelStep, LevelRef
from repro.errors import DeviceError, ScheduleError
from repro.hpu.hpu import HPU
from repro.opencl.costmodel import kernel_launch_time
from repro.opencl.kernel import Kernel, NDRange
from repro.sim.trace import merge_intervals, overlap_merged, time_at_concurrency
from repro.util.ambient import active_tracer, resilience_session
from repro.util.intmath import ceil_div
from repro.util.rng import NO_NOISE, NoiseModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.policies import ResilienceConfig


@dataclass(frozen=True)
class HybridRunResult:
    """Outcome of one simulated execution.

    The busy and overlap diagnostics (:attr:`cpu_busy`, :attr:`gpu_busy`,
    :attr:`cpu_fully_busy`, :attr:`overlap`) are derived from the stored
    intervals on first read and cached: a tuner sweep runs thousands of
    runs and reads none of them.  They are not fields: equality compares
    only what the run recorded, from which they follow.
    """

    makespan: float
    sequential_ops: float  # 1-core recursive baseline time
    gpu_kernel_time: float  # kernels only
    transfer_time: float  # both directions
    cores: int  # CPU cores the run drew on (cpu_fully_busy's threshold)
    cpu_side_time: float = 0.0  # advanced: duration of the CPU-side phase
    gpu_side_time: float = 0.0  # advanced: duration of the GPU device chain
    #: Raw busy intervals: the diagnostics' input, and for timeline
    #: rendering / post-hoc analysis.
    cpu_intervals: tuple = ()
    gpu_intervals: tuple = ()
    #: Multi-GPU runs: the sum of the per-card busy unions, reported as
    #: :attr:`gpu_busy` instead of the union of all card intervals.
    gpu_busy_override: Optional[float] = None
    #: Recovery actions (:class:`~repro.resilience.guard.RecoveryAction`)
    #: taken under a resilience config; empty for clean runs.
    recovery: tuple = ()

    @cached_property
    def _merged(self) -> tuple:
        """(CPU union, GPU union): each trace merged once, shared by
        the busy totals and the overlap."""
        return (
            merge_intervals(self.cpu_intervals),
            merge_intervals(self.gpu_intervals),
        )

    @cached_property
    def cpu_busy(self) -> float:
        """Union of CPU worker busy intervals."""
        return sum(e - s for s, e in self._merged[0])

    @cached_property
    def gpu_busy(self) -> float:
        """Union of GPU busy intervals (kernels + transfers)."""
        if self.gpu_busy_override is not None:
            return self.gpu_busy_override
        return sum(e - s for s, e in self._merged[1])

    @cached_property
    def cpu_fully_busy(self) -> float:
        """Time all ``cores`` cores were busy at once."""
        return time_at_concurrency(self.cpu_intervals, self.cores)

    @cached_property
    def overlap(self) -> float:
        """Time CPU and GPU were busy simultaneously."""
        return overlap_merged(*self._merged)

    def timeline(self, width: int = 72) -> str:
        """ASCII Gantt of this run (see :mod:`repro.sim.timeline`)."""
        from repro.sim.timeline import render_timeline

        return render_timeline(
            {"cpu": list(self.cpu_intervals), "gpu": list(self.gpu_intervals)},
            width=width,
            end=self.makespan,
        )

    @property
    def speedup(self) -> float:
        """Speedup over the 1-core recursive implementation."""
        return self.sequential_ops / self.makespan

    @property
    def gpu_cpu_ratio(self) -> float:
        """Fig. 8's blue line: the ratio between the time the GPU
        executes and the time the CPU side keeps all its cores busy —
        the two concurrent bottom-phase durations of §5.2.  Close to 1
        exactly when the work division is balanced."""
        if self.cpu_side_time == 0.0:
            return float("inf") if self.gpu_side_time > 0 else 0.0
        return self.gpu_side_time / self.cpu_side_time


def _step_kernel(step: KernelStep) -> Kernel:
    """A timing-only kernel carrying a step's cost-model traits."""
    return Kernel(
        name=step.name,
        ops_per_item=lambda args, _c=step.ops_per_item: _c,
        vector_fn=lambda n, args: None,
        divergent=step.divergent,
        access=step.access,
    )


def _metric_label_key(**labels):
    """:func:`repro.obs.metrics.label_key`, imported on first use: only
    traced runs build label keys."""
    from repro.obs.metrics import label_key

    return label_key(**labels)


class _ObsMetrics:
    """The metric handles a traced run records into.

    Built once per (executor, registry) — a tuner sweep runs hundreds of
    runs against one registry — and shared by the DES and the macro
    replay, which register the families in the same order.
    """

    __slots__ = (
        "metrics", "cpu_ops", "cpu_batches", "llc", "kernel_launches",
        "gpu_ops", "events", "processes", "runs", "makespan", "core_wait",
        "lk_sim", "lk_none", "lk_run", "lk_wait", "_lk_cpu", "_lk_gpu",
        "_element_bytes", "_xfer",
    )

    def __init__(self, executor: "ScheduleExecutor", metrics) -> None:
        self.metrics = metrics
        self.cpu_ops = metrics.counter("cpu.ops")
        self.cpu_batches = metrics.counter("cpu.batches")
        self.llc = metrics.counter("cpu.llc_pressure_events")
        self.kernel_launches = metrics.counter("gpu.kernel_launches")
        self.gpu_ops = metrics.counter("gpu.ops")
        self.events = metrics.counter("sim.events")
        self.processes = metrics.counter("sim.processes")
        self.runs = metrics.counter("runs")
        self.makespan = metrics.histogram(
            "run.makespan", help="noised makespans per platform/workload"
        )
        self.core_wait = metrics.histogram(
            "cpu.core_wait",
            help="simulated time worker requests wait for a core",
        )
        self.lk_sim = _metric_label_key(device="sim")
        self.lk_none = _metric_label_key()
        self.lk_run = _metric_label_key(
            platform=executor.hpu.name, workload=executor.workload.name
        )
        self.lk_wait = _metric_label_key(device="cpu")
        # Per-level label keys live with the executor (they outlast a
        # registry), so the inc fast path is one dict update a counter.
        self._lk_cpu, self._lk_gpu = executor._obs_caches[:2]
        self._element_bytes = executor.workload.element_bytes
        self._xfer = None  # (bytes counter, count counter, label keys)

    def gpu_label(self, level: LevelRef, lane: str = "gpu"):
        """The ``(device=lane, level)`` label key."""
        lk = self._lk_gpu.get((lane, level))
        if lk is None:
            lk = self._lk_gpu[lane, level] = _metric_label_key(
                device=lane, level=level
            )
        return lk

    def count_transfer(self, lane: str, tag: str, words: int) -> None:
        """Byte and count metrics of one finished transfer."""
        xfer = self._xfer
        if xfer is None:  # the families register on the first transfer
            metrics = self.metrics
            xfer = self._xfer = (
                metrics.counter("xfer.bytes"), metrics.counter("xfer.count"),
                {},
            )
        nbytes, count, keys = xfer
        lk = keys.get((lane, tag))
        if lk is None:
            lk = keys[lane, tag] = _metric_label_key(device=lane, dir=tag)
        nbytes.inc_at(lk, words * self._element_bytes)
        count.inc_at(lk)

    def flush_cpu(self, agg: dict) -> None:
        """Fold a run's per-level CPU batch aggregates (level ->
        [ops, batches, llc events], in ``cpu_batch`` call order) into
        the counters: one update per touched level per run."""
        keys = self._lk_cpu
        for level, (ops, batches, llc) in agg.items():
            lk = keys.get(level)
            if lk is None:
                lk = keys[level] = _metric_label_key(device="cpu", level=level)
            self.cpu_ops.inc_at(lk, ops)
            self.cpu_batches.inc_at(lk, batches)
            if llc:
                self.llc.inc_at(lk, llc)


class ScheduleExecutor:
    """Executes plans for one (HPU, workload) pair.

    Each ``run_*`` method compiles its plan into one
    :class:`~repro.core.schedule.program.Program` and hands it to one of
    two interpreters: the closed-form replay of
    :mod:`~repro.core.schedule.macro` when the run is eligible, the
    discrete-event ``_Run`` driver otherwise — bit-identical either
    way.  Only multi-card runs (their transfers queue on a shared
    link), runs under a fault plan or resilience session, runs with an
    execute hook and the executor switches below take the DES.

    ``fast=True`` (the default) resolves statically-chunked CPU worker
    teams in closed form — homogeneous batches become a single engine
    event, heterogeneous or contended ones a :class:`TeamBatch` — which
    is bit-identical to, and an order of magnitude cheaper than, the
    process-per-worker reference path (``fast=False``).  The reference
    path is kept for the equivalence suite in
    ``tests/core/schedule/test_fast_path_equivalence.py``.

    ``resilience`` attaches a :class:`~repro.resilience.policies.
    ResilienceConfig` (fault plan + retry/timeout/degrade policies);
    when ``None``, the executor picks up the ambient session installed
    via :func:`repro.resilience.install`, if any.  Each run gets a
    fresh injector, so a failed run never poisons the next.

    ``macro=False`` forces every run through the DES (the oracle the
    tests compare the replay against); ``None`` (the default) replays
    whenever the run is eligible.
    """

    def __init__(
        self,
        hpu: HPU,
        workload: DCWorkload,
        noise: NoiseModel = NO_NOISE,
        fast: bool = True,
        resilience: Optional[ResilienceConfig] = None,
        macro: Optional[bool] = None,
    ) -> None:
        self.hpu = hpu
        self.workload = workload
        self.noise = noise
        self.fast = fast
        self.resilience = resilience
        self.macro = macro
        #: Kernel-step duration cache shared by the DES and macro paths
        #: (see _kernel_level).  KernelStep is a frozen dataclass, so
        #: steps cache by value; a tuner sweep replays identical step
        #: shapes across hundreds of runs.
        self._kernel_cache: Dict[KernelStep, float] = {}
        #: The macro path's priced templates (see macro.py): GPU levels
        #: keyed by (level, count, offset, parallel), transfers by
        #: (tag, words), CPU teams by (level, count, cores, prefix).
        self._gpu_level_cache: Dict[tuple, object] = {}
        self._xfer_cache: Dict[tuple, object] = {}
        self._team_cache: Dict[tuple, object] = {}
        self._sequential_ops: Optional[float] = None
        #: Traced-run caches: per-level CPU and GPU label keys (the DES
        #: and the macro replay), and the DES's span attribute dicts
        #: shared across spans with identical attributes (consumers
        #: treat span attrs as immutable, so sharing is safe).
        self._obs_caches: tuple = ({}, {}, {})
        self._obs_finish: Optional[_ObsMetrics] = None

    # ------------------------------------------------------------------
    # baselines
    # ------------------------------------------------------------------
    def sequential_ops(self) -> float:
        """Work of the 1-core recursive baseline (= its time, rate 1).

        A pure function of the (immutable) workload, computed once per
        executor — every run result carries it.
        """
        cached = self._sequential_ops
        if cached is None:
            w = self.workload
            internal = sum(
                t * c for t, c in zip(w.level_tasks, w.level_cost)
            )
            cached = self._sequential_ops = internal + w.leaf_tasks * w.leaf_cost
        return cached

    def run_cpu_only(self, cores: Optional[int] = None) -> HybridRunResult:
        """Breadth-first execution on the CPU alone (no GPU).

        ``cores=1`` reproduces the sequential breadth-first baseline;
        the default uses all ``p`` cores (the multicore comparison the
        paper cites from [13]).
        """
        result = _macro.try_macro_cpu_only(self, cores)
        if result is None:
            result = self._des(
                _program.cpu_only(self.hpu, self.workload, cores)
            )
        return result

    def run_basic(self, plan: BasicPlan) -> HybridRunResult:
        """§5.1: one device at a time, single transfer each way.

        Under a resilience config whose :class:`~repro.resilience.
        policies.DegradePolicy` allows it, a GPU phase that fails for
        good (retries exhausted, device lost) falls back to the CPU:
        the remaining GPU levels re-plan as core-team batches — the
        basic planner's CPU-only degenerate schedule — and the run
        completes correctly.
        """
        result = _macro.try_macro_basic(self, plan)
        if result is None:
            result = self._des(_program.basic(self.workload, plan))
        return result

    def run_advanced(self, plan: AdvancedPlan) -> HybridRunResult:
        """§5.2 / Algorithm 8: two concurrent sides below the split
        level, then the top.

        Under a resilience config with CPU fallback enabled, a GPU side
        that fails permanently re-plans its remaining level sets onto
        the shared core pool (competing FIFO-fairly with the CPU side,
        like the gpu-tail always has) and the run still produces a
        correct result — the degraded mode of ``docs/RESILIENCE.md``.
        """
        result = _macro.try_macro_advanced(self, plan)
        if result is None:
            result = self._des(_program.advanced(self.workload, plan))
        return result

    def run_advanced_parallel_tail(self, plan) -> HybridRunResult:
        """§7: the advanced schedule where the GPU, instead of handing
        its partition back at the transfer level, switches to intra-task
        parallel kernels and climbs to ``plan.stop_level`` itself.

        ``plan`` is a :class:`~repro.core.schedule.extensions.
        ParallelTailPlan`.  Still exactly two transfers, and the same
        CPU fallback as :meth:`run_advanced`.
        """
        result = _macro.try_macro_advanced(self, plan)
        if result is None:
            result = self._des(_program.parallel_tail(self.workload, plan))
        return result

    def run_advanced_multi(self, plan: AdvancedPlan) -> HybridRunResult:
        """§3.2: the advanced schedule with the GPU side striped across
        the cards of a :class:`~repro.hpu.multi.MultiGPUHPU`.

        Each card gets an equal contiguous slice of the GPU partition
        and runs its kernels concurrently with the others; *all*
        transfers serialize on the shared host link — the very overhead
        the paper's footnote 5 cites for not using the HD 5970's second
        die.  Plan semantics are unchanged (two transfers per card).
        The link's FIFO queue is DES work, so these runs never replay.
        """
        return self._des(_program.multi(self.hpu, self.workload, plan))

    def _des(self, program: _program.Program) -> HybridRunResult:
        """Run ``program`` through the discrete-event engine."""
        return _Run(self, program).run()

    def _kernel_level(
        self, level: LevelRef, offset: int, count: int, parallel: bool
    ) -> tuple:
        """``(steps, durations)`` of one GPU level: its kernel steps and
        their launch times on the platform's GPU.  Every card of a
        multi-GPU HPU shares these cost parameters."""
        w = self.workload
        if parallel:
            steps = w.gpu_parallel_steps(level, count, offset)
        else:
            steps = w.gpu_steps(level, count, offset)
        cache = self._kernel_cache
        durations = []
        for step in steps:
            duration = cache.get(step)
            if duration is None:
                spec = self.hpu.gpu_spec
                duration = cache[step] = kernel_launch_time(
                    spec.cost_parameters(),
                    _step_kernel(step),
                    NDRange(
                        step.items, min(spec.preferred_workgroup, step.items)
                    ),
                    {},
                )
            durations.append(duration)
        return steps, durations

    # ------------------------------------------------------------------
    # traced-run metric handles (DES and macro replay)
    # ------------------------------------------------------------------
    def _obs_metrics(self, metrics) -> _ObsMetrics:
        """The :class:`_ObsMetrics` of ``metrics``, cached per executor."""
        obs = self._obs_finish
        if obs is None or obs.metrics is not metrics:
            obs = self._obs_finish = _ObsMetrics(self, metrics)
        return obs

    # ------------------------------------------------------------------
    # model-conformance oracle (traced runs only; pure observation)
    # ------------------------------------------------------------------
    def _model_context(self):
        """The run's :class:`~repro.core.model.context.ModelContext`,
        cached per executor; ``None`` when the workload is irregular."""
        ctx = getattr(self, "_oracle_ctx", False)
        if ctx is False:
            from repro.core.schedule.advanced import AdvancedSchedule

            try:
                ctx = AdvancedSchedule._context(
                    self.workload, self.hpu.parameters
                )
            except ScheduleError:
                ctx = None
            self._oracle_ctx = ctx
        return ctx

    def _note_conformance(
        self, tracer, run_index: int, result: HybridRunResult, oracle: tuple
    ) -> None:
        """Record predicted-vs-simulated residuals for one traced run.

        Evaluates the analytical model at the run's *own* operating
        point (``oracle``: a program's integerized ``("advanced", α,
        y)`` or ``("basic", crossover, use_gpu)``), records the absolute
        and relative makespan residuals as metrics, and attaches the oracle's numbers to the run's
        trace record.  Pure arithmetic on already-simulated values: no
        events, no randomness, so traced results stay bit-identical to
        untraced ones.  Degraded runs (CPU fallback after a GPU loss)
        are skipped — their makespan is a recovery artifact, not a
        model subject.
        """
        if result.recovery:
            return
        ctx = self._model_context()
        if ctx is None:
            return
        from repro.core.model.oracle import advanced_report, basic_report
        from repro.errors import ModelError

        kind, *point = oracle
        report_at = advanced_report if kind == "advanced" else basic_report
        try:
            report = report_at(ctx, *point, result.makespan)
        except ModelError:
            return  # operating point outside the model's admissible region
        oracle = getattr(self, "_oracle_metrics", None)
        if oracle is None or oracle[0] is not tracer.metrics:
            metrics = tracer.metrics
            oracle = self._oracle_metrics = (
                metrics,
                metrics.histogram(
                    "model.residual_abs",
                    help="per-run |predicted - simulated| makespan (ops)",
                ),
                metrics.histogram(
                    "model.residual_rel",
                    help="per-run |predicted - simulated| / simulated",
                ),
                metrics.histogram(
                    "model.residual_rel_signed",
                    help=(
                        "per-run (predicted - simulated) / simulated; "
                        "positive = model optimistic"
                    ),
                ),
                {},
            )
        _m, h_abs, h_rel, h_signed, keys = oracle
        lk = keys.get(report.strategy)
        if lk is None:
            lk = keys[report.strategy] = _metric_label_key(
                platform=self.hpu.name,
                strategy=report.strategy,
                workload=self.workload.name,
            )
        h_abs.observe_at(lk, report.residual_abs)
        h_rel.observe_at(lk, report.residual_rel)
        h_signed.observe_at(lk, report.residual_rel_signed)
        # Attach the oracle numbers to the run's trace record, so every
        # run segment in the exported trace carries its conformance.
        record = tracer.runs[run_index]
        record.attrs.update(
            strategy=report.strategy,
            predicted_makespan=report.predicted,
            residual=report.residual,
            residual_rel=report.residual_rel,
            residual_rel_signed=report.residual_rel_signed,
            model_tc=report.tc,
            model_tg_max=report.tg_max,
            model_crossover=report.crossover,
            closed_form=report.closed_form,
        )


class _Run:
    """The DES interpreter of one :class:`~repro.core.schedule.program.
    Program`: simulator, devices, accumulated stats."""

    def __init__(
        self, executor: ScheduleExecutor, program: _program.Program
    ) -> None:
        self.x = executor
        self.w = executor.workload
        self.program = program
        self.sim = _sim.Simulator()
        self.cpu, self.gpu = executor.hpu.make_devices()
        self.cpu.bind(self.sim)
        # The devices the chains run on, one per chain.
        self.cards = (
            executor.hpu.make_gpu_devices() if program.striped else [self.gpu]
        )
        cores = program.cores
        self.cores = executor.hpu.cpu_spec.p if cores is None else cores
        self.gpu_kernel_time = 0.0
        self.transfer_time = 0.0
        # -- resilience (no-op unless a config is attached/installed) --
        # The guard probes each operation *before* it executes; with an
        # empty fault plan and no deadlines it admits everything
        # without scheduling a single event, so zero-fault runs are
        # bit-identical to guardless ones
        # (tests/resilience/test_differential.py).
        self._session = resilience_session()
        config = executor.resilience
        if config is None and self._session is not None:
            config = self._session.config
        # -- observability (no-op unless a repro.obs tracer is active) --
        # All hooks are pure observers keyed on simulated time; they
        # never schedule events or draw randomness, so tracing on/off
        # produces bit-identical results (tests/obs/test_equivalence.py).
        self.tracer = active_tracer()
        if self.tracer is not None:
            self.tracer.begin_run(
                f"{executor.hpu.name}:{self.w.name}",
                platform=executor.hpu.name,
                workload=self.w.name,
                n=self.w.total_elements,
                cores=self.cores,
                fast=executor.fast,
            )
            sim = self.sim
            # Metric handles and executor-lifetime caches (a tuner sweep
            # replays the same batches across hundreds of runs): the
            # inc fast path is a single dict update per counter.
            obs = self._obs = executor._obs_metrics(self.tracer.metrics)
            self._attr_cache = executor._obs_caches[2]
            # Hot-path recording shortcuts: rows recorded during a run
            # are run-relative (see repro.obs.tracer.SpanRow), which sim
            # times already are — so batch/kernel spans append straight
            # onto the tracer's row buffer with the run index cached,
            # skipping a Python call per span.  CPU batch counters
            # accumulate per level in a plain dict and flush once in
            # run() (counters are commutative aggregates).
            self._span_rows = self.tracer.span_rows
            self._ri = self.tracer.current_run.index
            self._cpu_agg: Dict[object, list] = {}
            wait_hist = obs.core_wait
            wait_key = obs.lk_wait
            # Synchronous acquires are all zero-wait observations of the
            # same point: count them in a cell and batch-flush in
            # run() — histograms are commutative, so the point state
            # is identical to per-acquire observe calls.
            zero_waits = [0]
            self._zero_waits = zero_waits

            def _on_request(n, grant, _clock=sim, _hist=wait_hist,
                            _key=wait_key, _zero=zero_waits):
                if grant is None:  # synchronous acquire: zero wait
                    _zero[0] += 1
                    return
                t0 = _clock.now
                grant.on_fire(
                    lambda _s: _hist.observe_at(_key, _clock.now - t0)
                )

            self.cpu.cores.set_wait_hook(_on_request)
        self.guard = None
        if config is not None:
            from repro.resilience.guard import ResilienceGuard

            self.guard = ResilienceGuard(config, self.sim, tracer=self.tracer)
        # Core-pool acquisitions only pay the fault check when the plan
        # actually targets the "resource" site (the hook is per-run
        # state: make_devices() built a fresh pool above).
        if self.guard is not None and any(
            spec.site == "resource" for spec in config.plan.faults
        ):
            self.cpu.cores.set_fault_hook(
                self.guard.injector.resource_fault_hook(self.sim)
            )

    # -- the program -----------------------------------------------------
    def batches(self, batches):
        """Run CPU batches one after another."""
        for level, offset, count, prefix in batches:
            tag = prefix if level == LEAVES else f"{prefix}:{level}"
            yield from self.cpu_batch(level, offset, count, tag)

    def cpu_side(self, spans: list):
        yield from self.batches(self.program.cpu)
        spans[0] = self.sim.now

    def device_side(self, spans: list):
        """The chains (one process per card when striped), then the
        CPU tail over what they handed back."""
        program = self.program
        if program.striped:
            link = _sim.Resource(1, "host-link")
            yield _sim.AllOf([
                self.sim.spawn(self.chain(chain, card, link), name=f"card{i}")
                for i, (chain, card) in enumerate(
                    zip(program.chains, self.cards)
                )
            ])
        elif program.chains:
            yield from self.chain(program.chains[0], self.gpu)
        else:
            return None  # no GPU share: no device side at all
        spans[1] = self.sim.now
        yield from self.batches(program.tail)

    def chain(self, chain, device, link=None):
        """One card's transfers and kernel levels.

        With a fallback label and a resilience config that allows it, a
        chain that fails for good (retries exhausted, device lost)
        re-plans its remaining levels onto the shared core pool, and
        the run completes correctly.
        """
        if chain is None:
            return None
        done = 0
        try:
            yield from self.gpu_transfer(chain.words, "h2d", device, link)
            for index, (level, offset, count, parallel) in enumerate(
                chain.levels
            ):
                yield from self.gpu_level(
                    level, offset, count, parallel, device
                )
                done = index + 1
            yield from self.gpu_transfer(chain.words, "d2h", device, link)
        except DeviceError as exc:
            label = self.program.fallback
            guard = self.guard
            if label is None or guard is None or not guard.should_degrade(exc):
                raise
            guard.note_fallback(label, exc)
            for level, offset, count, _parallel in chain.levels[done:]:
                yield from self.cpu_batch(
                    level, offset, count, f"fallback:{level}"
                )

    def driver(self, spans: list):
        """Both sides — concurrently when there is a CPU side — then
        the top."""
        if self.program.cpu:
            sides = [
                self.sim.spawn(self.cpu_side(spans)),
                self.sim.spawn(self.device_side(spans)),
            ]
            yield _sim.AllOf(sides)
        else:
            yield from self.device_side(spans)
        yield from self.batches(self.program.top)

    # -- CPU ------------------------------------------------------------
    def cpu_batch(self, level: LevelRef, offset: int, count: int, tag: str):
        """Run ``count`` tasks of a level on the shared core pool.

        Runs up to ``cores`` workers with statically-chunked task ranges
        (an OpenMP-style team); each worker holds one core for its
        chunk's duration, so concurrent batches from the two sides share
        the pool FIFO-fairly.

        Fast mode routes the team through :class:`TeamBatch`, which
        computes each worker's busy interval in closed form from its
        grant time and chunk duration and records it into the trace
        directly — no per-worker generator processes.  The chunks of one
        batch are homogeneous whenever ``count`` is a multiple of the
        worker count (always true for the power-of-two levels of regular
        D&C trees), so on an uncontended pool the whole team resolves as
        a single completion event.  The reference path spawns one
        process per worker; both paths produce bit-identical clocks and
        traces (see ``tests/core/schedule/test_fast_path_equivalence``).
        """
        if self.guard is not None:
            yield from self.guard.attempt(
                "cpu", "cpu", [0.0], label=tag, trace=self.cpu.trace
            )
        phase = "base" if level == LEAVES else "combine"
        self.w.run_hook(phase, level, offset, count)
        cost = self.w.cost_at(level)
        workers = min(count, self.cores)
        contention = self.cpu.contention(workers, self.w.working_set_bytes())
        chunk = ceil_div(count, workers)
        spawn_overhead = (
            self.x.hpu.cpu_spec.thread_spawn_overhead if workers > 1 else 0.0
        )
        tracer = self.tracer
        if tracer is not None:
            agg = self._cpu_agg.get(level)
            if agg is None:
                agg = self._cpu_agg[level] = [0.0, 0, 0]
            agg[0] += count * cost
            agg[1] += 1
            if contention > 1.0:
                agg[2] += 1
            batch_start = self.sim.now

        if not self.x.fast:
            # Reference path: one generator process per worker.
            worker_lane = f"{self.cpu.trace.name or 'cpu'}.workers"

            def worker(tasks: int):
                yield self.cpu.cores.request(1)
                start = self.sim.now
                yield _sim.Timeout(spawn_overhead + tasks * cost * contention)
                self.cpu.trace.record(start, self.sim.now, tag)
                if tracer is not None:
                    tracer.span(
                        tag, "cpu.worker", start, self.sim.now,
                        device=worker_lane,
                    )
                self.cpu.cores.release(1)
                return None

            remaining = count
            procs = []
            for _ in range(workers):
                take = min(chunk, remaining)
                if take <= 0:
                    break
                procs.append(self.sim.spawn(worker(take)))
                remaining -= take
            yield _sim.AllOf(procs)
            if tracer is not None:
                tracer.span(
                    tag, "cpu.batch", batch_start, self.sim.now,
                    device="cpu", level=level, phase=phase, tasks=count,
                    workers=workers,
                )
            return

        if chunk * workers == count:
            # Homogeneous static chunks: every worker runs for the same
            # closed-form duration (the overwhelmingly common case).
            durations = [spawn_overhead + chunk * cost * contention] * workers
        else:
            durations = []
            remaining = count
            for _ in range(workers):
                take = min(chunk, remaining)
                if take <= 0:
                    break
                durations.append(spawn_overhead + take * cost * contention)
                remaining -= take
        yield _sim.TeamBatch(
            self.sim, self.cpu.cores, durations, trace=self.cpu.trace, tag=tag
        )
        if tracer is not None:
            ck = (tag, count, workers)
            attrs = self._attr_cache.get(ck)
            if attrs is None:
                attrs = self._attr_cache[ck] = {
                    "level": level, "phase": phase, "tasks": count,
                    "workers": workers,
                }
            self._span_rows.append(
                (tag, "cpu.batch", batch_start, self.sim.now, "cpu",
                 self._ri, attrs)
            )

    # -- GPU ------------------------------------------------------------
    def gpu_level(
        self,
        level: LevelRef,
        offset: int,
        count: int,
        parallel: bool = False,
        device=None,
    ):
        """Launch the kernel steps of one level on ``device`` (the
        platform's GPU by default).

        ``parallel=True`` uses the workload's intra-task parallel
        kernels (§7 extension) instead of the per-subproblem ones.
        """
        device = self.gpu if device is None else device
        steps, durations = self.x._kernel_level(level, offset, count, parallel)
        # The guard admits (or fails) the whole level before the hook
        # touches host data, so failed attempts never corrupt state and
        # the successful attempt replays the steps exactly as planned.
        # All cards share the "gpu" fault lane: a device fault downs
        # the whole multi-GPU side at once.
        if self.guard is not None:
            yield from self.guard.attempt(
                "kernel",
                "gpu",
                durations,
                label=f"level:{level}",
                trace=device.trace,
            )
        phase = "base" if level == LEAVES else "combine"
        self.w.run_hook(phase, level, offset, count)
        sim = self.sim
        record = device.trace.record
        if self.tracer is None:
            for step, duration in zip(steps, durations):
                start = sim.now
                yield _sim.Timeout(duration)
                record(start, sim.now, f"kernel:{step.name}")
                self.gpu_kernel_time += duration
            return
        # Traced variant of the same loop: identical sim behavior, plus
        # a span row per kernel and per-level counter aggregation
        # (counters are commutative, so one flush after the loop matches
        # per-step increments while skipping two dict updates a kernel).
        lane = self._lane(device)
        attr_cache = self._attr_cache
        rows_append = self._span_rows.append
        ri = self._ri
        launches = 0
        gpu_ops = 0.0
        for step, duration in zip(steps, durations):
            ck = (step.name, level, step.items, parallel)
            ent = attr_cache.get(ck)
            if ent is None:
                ent = attr_cache[ck] = (
                    f"kernel:{step.name}",
                    {"level": level, "items": step.items,
                     "parallel": parallel},
                )
            start = sim.now
            yield _sim.Timeout(duration)
            end = sim.now
            record(start, end, ent[0])
            self.gpu_kernel_time += duration
            rows_append(
                (ent[0], "gpu.kernel", start, end, lane, ri, ent[1])
            )
            launches += 1
            gpu_ops += step.items * step.ops_per_item
        if launches:
            lk = self._obs.gpu_label(level, lane)
            self._obs.kernel_launches.inc_at(lk, launches)
            self._obs.gpu_ops.inc_at(lk, gpu_ops)

    def gpu_transfer(self, words: int, tag: str, device=None, link=None):
        """One CPU↔GPU transfer of ``words`` machine words to or from
        ``device`` (the platform's GPU by default), queueing on the
        shared host ``link`` when there is one."""
        device = self.gpu if device is None else device
        if link is not None:
            yield link.request(1)
        duration = self.x.hpu.transfer_time(words)
        if self.guard is not None:
            yield from self.guard.attempt(
                "transfer", "gpu", [duration], label=tag, trace=device.trace
            )
        start = self.sim.now
        yield _sim.Timeout(duration)
        device.trace.record(start, self.sim.now, tag)
        self.transfer_time += duration
        if link is not None:
            link.release(1)
        if self.tracer is not None:
            lane = self._lane(device)
            self.tracer.span(
                tag, "gpu.xfer", start, self.sim.now, device=lane, words=words
            )
            self._obs.count_transfer(lane, tag, words)

    def _lane(self, device) -> str:
        """The trace lane of ``device``: ``gpu`` for the platform's GPU,
        the card's name for a card of a multi-GPU HPU."""
        return "gpu" if device is self.gpu else device.trace.name or "gpu"

    # -- wrap-up ----------------------------------------------------------
    def run(self) -> HybridRunResult:
        """Run the program to completion; the run's result."""
        program = self.program
        spans = [0.0, 0.0]  # when the CPU side and the device chains ended
        self.sim.run_process(self.driver(spans), name="schedule-driver")
        makespan = self.x.noise.apply(
            self.sim.now, self.w.name, *program.noise_key
        )
        if self.tracer is not None:
            obs = self._obs
            obs.core_wait.observe_many_at(
                obs.lk_wait, 0.0, self._zero_waits[0]
            )
            self._zero_waits[0] = 0
            # Flush the per-level CPU batch aggregates accumulated by
            # cpu_batch.
            obs.flush_cpu(self._cpu_agg)
            self._cpu_agg.clear()
            obs.events.inc_at(obs.lk_sim, self.sim.events_processed)
            obs.processes.inc_at(obs.lk_sim, self.sim.processes_spawned)
            obs.runs.inc_at(obs.lk_none)
            obs.makespan.observe_at(obs.lk_run, makespan)
            # Close this run's segment on the trace timeline at the
            # *unnoised* clock — span times are raw simulated time.
            self.tracer.end_run(self.sim.now)
        recovery = ()
        if self.guard is not None and self.guard.recovery:
            recovery = tuple(self.guard.recovery)
            if self._session is not None:
                self._session.note_recovery(
                    f"{self.x.hpu.name}:{self.w.name}", recovery
                )
        if not program.cpu:
            spans = (0.0, 0.0)  # one device at a time: no sides
        cards = self.cards
        result = HybridRunResult(
            makespan=makespan,
            sequential_ops=self.x.sequential_ops(),
            gpu_kernel_time=self.gpu_kernel_time,
            transfer_time=self.transfer_time,
            cores=self.cores,
            cpu_side_time=spans[0],
            gpu_side_time=spans[1],
            cpu_intervals=tuple(self.cpu.trace.intervals),
            gpu_intervals=tuple(
                iv for card in cards for iv in card.trace.intervals
            ),
            # gpu_busy sums the per-card unions: concurrent cards count
            # once each, not once for the lot.
            gpu_busy_override=(
                sum(card.trace.busy_time() for card in cards)
                if program.striped
                else None
            ),
            recovery=recovery,
        )
        if self.tracer is not None and program.oracle is not None:
            self.x._note_conformance(
                self.tracer, self._ri, result, program.oracle
            )
        return result


# Imported last: macro.py needs HybridRunResult/_step_kernel from this
# module, so the import must run after they are defined.
from repro.core.schedule import macro as _macro  # noqa: E402
