"""CLI: regenerate every table and figure of the paper.

Usage::

    repro-experiments                # all experiments, full grids
    repro-experiments --fast        # coarse grids (CI-speed)
    repro-experiments fig8 fig9     # a selection
    repro-experiments --list        # what's available

Observability (see ``docs/OBSERVABILITY.md``)::

    repro-experiments fig8 --fast --trace-out t.json --metrics-out m.json

activates the :mod:`repro.obs` tracer for the whole invocation, writes
a Chrome/Perfetto-loadable trace and a metrics snapshot, and drops a
run manifest under ``results/<run-id>/manifest.json`` so the outputs
are diffable artifacts.  Tracing never changes results: simulated
numbers are bit-identical with it on or off.

Resilience (see ``docs/RESILIENCE.md``)::

    repro-experiments fig8 --fast --fault-plan chaos.json \
        --retry 2 --backoff 500 --deadline 1e6,5e5

installs a :mod:`repro.resilience` session for the whole invocation:
every schedule-executor run checks the JSON fault plan, retries flaky
device work with exponential backoff, enforces kernel/transfer
deadlines, and falls back to the CPU when the GPU is lost.  The fault
plan and every recovery action are recorded in the run manifest.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.experiments.result import ExperimentResult

if TYPE_CHECKING:
    from repro.experiments.request import JobRequest

#: Experiment id -> its module under ``repro.experiments``.  A module
#: is imported on the experiment's first run, so a cold single-figure
#: process loads only what that figure needs.
_MODULES = {
    "table1": "table1_platforms",
    "table2": "table2_parameters",
    "fig3": "fig3_alpha_curves",
    "fig4": "fig4_work_division",
    "fig5": "fig5_estimate_g",
    "fig6": "fig6_estimate_gamma",
    "fig7": "fig7_alpha_speedups",
    "fig8": "fig8_speedup_vs_n",
    "fig9": "fig9_parallel_gpu",
    "fig10": "fig10_optimal_params",
    "figw": "figw_workloads",
    "ext1": "ext_future_work",
    "ext2": "ext_matmul",
}


def _import_experiment(module: str):
    return importlib.import_module(f"repro.experiments.{module}")


def _experiment(module: str) -> Callable[[bool], ExperimentResult]:
    def run(fast: bool = False) -> ExperimentResult:
        return _import_experiment(module).run(fast)

    return run


EXPERIMENTS: Dict[str, Callable[[bool], ExperimentResult]] = {
    key: _experiment(module) for key, module in _MODULES.items()
}


# ----------------------------------------------------------------------
# the callable runner API (what repro.serve drives; argv parsing below
# is one thin client of it)
# ----------------------------------------------------------------------
@dataclass
class RunSpec:
    """One runner invocation, as plain data (no argv involved).

    :attr:`request` is the validated run (what runs, and so what its
    cache key names); every other field says where its artifacts go and
    how it is observed.  ``repro.serve`` builds these from submitted
    job requests, tests build them directly, and :func:`main` builds
    one from parsed arguments.  All fields are picklable, so a spec can
    cross a process-pool boundary.
    """

    #: The validated request (:func:`repro.experiments.request.
    #: validate_request`): a figure selection or a custom sweep.
    request: JobRequest
    trace_out: Optional[Path] = None
    metrics_out: Optional[Path] = None
    #: Write a manifest even when nothing else forces one.
    manifest: bool = False
    run_id: Optional[str] = None
    results_dir: Path = Path("results")
    #: A ``repro.resilience.ResilienceConfig`` to install for the run.
    #: Resilient runs are uncacheable (their cache_key is empty).
    resilience: Optional[object] = None
    #: Render the ASCII per-device timeline into the outcome.
    trace_ascii: bool = False
    #: Recorded in the manifest's (volatile) argv field.
    argv: Optional[List[str]] = None
    #: Cross-process correlation id (the serve daemon's job id):
    #: threaded into the tracer name and every log event, never into
    #: the canonical request or the manifest.
    correlation_id: Optional[str] = None
    #: Activate tracing and return the tracer's picklable snapshot in
    #: :attr:`RunOutcome.trace_snapshot` (what a serve worker ships
    #: back for daemon-side trace stitching).
    collect_trace: bool = False
    #: Append structured JSON-lines events (repro.obs.log) here; the
    #: daemon, worker and runner share one file, correlated by id.
    log_json: Optional[str] = None


@dataclass
class RunOutcome:
    """What one :func:`run_request` produced.

    Its cache identity (:attr:`request`, :attr:`cache_key`) is a pure
    function of the spec's request, derived on first read and then
    cached: an untraced CLI run reads neither, and deriving them
    fingerprints the package source.  The outcome holds the spec
    itself, not a copy, so read them before mutating it.
    """

    run_id: str
    results: Dict[str, ExperimentResult]
    #: What the cache identity derives from: the spec and whether the
    #: run was traced.
    spec: RunSpec = field(repr=False)
    traced: bool
    manifest: Optional[object] = None  # RunManifest when emitted
    manifest_path: Optional[Path] = None
    report_path: Optional[Path] = None
    conformance: Optional[dict] = None
    outputs: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Tracer statistics for status lines (0 when untraced).
    trace_spans: int = 0
    trace_runs: int = 0
    metric_families: int = 0
    #: ASCII timeline (only with ``RunSpec.trace_ascii``).
    ascii_timeline: Optional[str] = None
    #: Picklable tracer snapshot (only with ``RunSpec.collect_trace``);
    #: deliberately absent from :meth:`to_dict` — it is row data for
    #: the serve daemon's trace stitcher, not part of the JSON digest.
    trace_snapshot: Optional[dict] = None

    @cached_property
    def request(self) -> Dict[str, object]:
        """The canonical request.  A job submitted through
        ``repro-serve`` and the same request run directly reduce to one
        dict, so their manifests carry identical ``cache_key``/``request``
        blocks and either one warms the cache for the other."""
        from repro.experiments.request import canonical_request

        return canonical_request(
            self.spec.request,
            traced=self.traced,
            resilient=self.spec.resilience is not None,
        )

    @cached_property
    def cache_key(self) -> str:
        """The result-cache key; empty for a run under fault injection,
        which is behaviourally unique and so uncacheable."""
        if self.spec.resilience is not None:
            return ""
        from repro.serve.cache import cache_key

        return cache_key(self.request)

    def to_dict(self) -> dict:
        """JSON-able digest (what the serve daemon ships around)."""
        return {
            "run_id": self.run_id,
            "cache_key": self.cache_key,
            "request": self.request,
            "manifest_path": (
                str(self.manifest_path) if self.manifest_path else None
            ),
            "report_path": (
                str(self.report_path) if self.report_path else None
            ),
            "conformance": self.conformance or {},
            "results": {
                key: {"title": res.title, "notes": list(res.notes)}
                for key, res in self.results.items()
            },
        }


def unique_run_id(results_dir: Union[str, Path], base: str) -> str:
    """``base``, uniquified against existing run directories.

    Auto-generated run ids have one-second resolution, so two runs
    started in the same second used to silently share (and overwrite)
    one ``results/<run-id>/``.  Appends ``-2``, ``-3``, ... until the
    directory is free; explicit ``--run-id`` values bypass this (the
    caller asked for that exact directory).
    """
    results_dir = Path(results_dir)
    run_id, counter = base, 1
    while (results_dir / run_id).exists():
        counter += 1
        run_id = f"{base}-{counter}"
    return run_id


def _sweep_run(canonical: dict) -> Callable[[bool], ExperimentResult]:
    """The pseudo-experiment of a custom sweep, run from its canonical
    request (defaults resolved there), so it runs what its key names."""
    from repro.experiments.common import (
        default_alpha_grid,
        fmt_ratio,
        sweep_best_operating_points,
    )
    from repro.hpu.platforms import get_platform
    from repro.util.rng import NoiseModel

    def run(fast: bool) -> ExperimentResult:
        hpu = get_platform(canonical["platform"])
        workload = canonical["workload"]
        sizes = canonical["n"]
        alphas = canonical["alphas"] or default_alpha_grid(fast)
        bests = sweep_best_operating_points(
            [(hpu, n) for n in sizes],
            alphas=alphas,
            levels=canonical["levels"],
            noise=NoiseModel(
                amplitude=canonical["noise_amplitude"], seed=canonical["seed"]
            ),
            include_cpu_fallback=canonical["include_cpu_fallback"],
            adaptive=canonical["adaptive"],
            workload=workload,
        )
        rows = []
        for n, best in zip(sizes, bests):
            rows.append(
                [
                    hpu.name,
                    n,
                    fmt_ratio(best.alpha),
                    "-"
                    if best.transfer_level is None
                    else best.transfer_level,
                    fmt_ratio(best.speedup),
                ]
            )
        # The workload suffix only for non-default workloads: mergesort
        # sweep titles predate the registry and stay byte-stable.
        suffix = "" if workload == "mergesort" else f" ({workload})"
        return ExperimentResult(
            experiment_id="sweep",
            title=f"Custom operating-point sweep on {hpu.name}{suffix}",
            headers=["platform", "n", "alpha*", "y*", "speedup"],
            rows=rows,
            notes=[
                f"grid: {len(sizes)} sizes x {len(alphas)} alphas"
                f" ({'adaptive' if canonical['adaptive'] else 'exhaustive'})",
            ],
        )

    return run


def _build_manifest(
    outcome: RunOutcome, selected: List[str], tracer, session, analysis
):
    """Assemble the RunManifest for this invocation."""
    import os

    import repro
    from repro.hpu import PLATFORMS
    from repro.obs.manifest import RunManifest, platform_manifest

    spec = outcome.spec
    # The canonical request resolves the defaults: a custom sweep's
    # own seed and noise, the library's for everything else.
    request = outcome.request
    return RunManifest(
        host_cpus=os.cpu_count() or 1,
        run_id=outcome.run_id,
        created_unix=int(time.time()),
        argv=(
            list(spec.argv) if spec.argv is not None else sys.argv[1:]
        ),
        experiments=selected,
        fast=spec.request.fast,
        platforms={
            name: platform_manifest(hpu) for name, hpu in PLATFORMS.items()
        },
        seed=request["seed"],
        noise_amplitude=request["noise_amplitude"],
        repro_version=repro.__version__,
        results={
            key: {"title": res.title, "notes": list(res.notes)}
            for key, res in outcome.results.items()
        },
        metrics_summary=(
            tracer.metrics.summary() if tracer is not None else {}
        ),
        outputs=outcome.outputs,
        fault_plan=(
            session.config.plan.to_dict() if session is not None else {}
        ),
        recovery=(
            [dict(action) for action in session.recovery]
            if session is not None
            else []
        ),
        conformance=outcome.conformance or {},
        analysis=analysis or {},
        cache_key=outcome.cache_key,
        request=request,
        workload=request["workload"],
    )


def run_request(
    spec: RunSpec,
    on_result: Optional[Callable[[str, ExperimentResult], None]] = None,
) -> RunOutcome:
    """Execute one runner invocation described by ``spec``.

    The argv-free core of :func:`main` — what the ``repro.serve``
    daemon calls instead of shelling out.  Runs the selected
    experiments (or the custom sweep), with the same tracing,
    conformance checking and manifest/report emission as the CLI, but
    never prints: progress
    goes through ``on_result(key, result)`` (called as each experiment
    completes) and everything else comes back in the
    :class:`RunOutcome`.

    ``spec.request`` comes validated (:func:`repro.experiments.request.
    validate_request` raises ``ValueError`` for unknown experiment ids,
    workloads or platforms), so this runs it as given.
    """
    request = spec.request
    if request.kind == "sweep":
        from repro.experiments.request import canonical_request

        selected = ["sweep"]
        runners: Dict[str, Callable[[bool], ExperimentResult]] = {
            "sweep": _sweep_run(canonical_request(request))
        }
    else:
        selected = list(request.experiments)
        runners = {key: EXPERIMENTS[key] for key in selected}
        if request.workload is not None:
            runners["figw"] = _import_experiment(
                _MODULES["figw"]
            ).run_for(request.workload)

    # -- observability setup -------------------------------------------
    tracing_on = (
        spec.collect_trace
        or spec.trace_out is not None
        or spec.metrics_out is not None
        or request.check_model is not None
        or request.report
    )
    emit_manifest = (
        tracing_on or spec.manifest or spec.resilience is not None
    )
    tracer = None
    if tracing_on:
        from repro.obs import Tracer, activate

        # A daemon-dispatched job threads its correlation id into the
        # tracer name, so the engine trace is attributable to the job
        # that triggered it even before the stitcher labels the rows.
        name = (
            f"job-{spec.correlation_id}"
            if spec.correlation_id
            else "repro-experiments"
        )
        tracer = activate(Tracer(name=name))
    logger = None
    if spec.log_json:
        from repro.obs.log import JsonLogger

        logger = JsonLogger(
            spec.log_json, "runner", correlation_id=spec.correlation_id
        )
        logger.event(
            "run.started", experiments=list(selected), fast=request.fast
        )

    session = None
    if spec.resilience is not None:
        from repro.resilience import install

        session = install(spec.resilience)

    results: Dict[str, ExperimentResult] = {}
    try:
        for exp_key in selected:
            result = runners[exp_key](request.fast)
            results[exp_key] = result
            if logger is not None:
                logger.event("run.experiment_done", experiment=exp_key)
            if on_result is not None:
                on_result(exp_key, result)
    finally:
        if session is not None:
            from repro.resilience import uninstall

            uninstall()
        if tracer is not None:
            from repro.obs import deactivate

            deactivate()

    # -- observability artifacts ---------------------------------------
    outputs: Dict[str, Optional[str]] = {}
    if tracer is not None and spec.trace_out is not None:
        from repro.obs import write_chrome_trace

        outputs["trace"] = str(write_chrome_trace(spec.trace_out, tracer))
    if tracer is not None and spec.metrics_out is not None:
        from repro.obs import write_metrics

        outputs["metrics"] = str(write_metrics(spec.metrics_out, tracer))
    ascii_timeline = None
    if tracer is not None and spec.trace_ascii:
        from repro.obs import ascii_report

        ascii_timeline = ascii_report(tracer)

    # -- conformance + trace analysis ----------------------------------
    conformance = None
    analysis = None
    if tracer is not None:
        from repro.core.model.oracle import (
            DEFAULT_RESIDUAL_BAND,
            conformance_from_attrs,
        )
        from repro.obs.analysis import analyze, longest_run

        conformance = conformance_from_attrs(
            ((record.label, record.attrs) for record in tracer.runs),
            band=(
                request.check_model
                if request.check_model is not None
                else DEFAULT_RESIDUAL_BAND
            ),
        )
        headline = longest_run(tracer)
        if headline is not None:
            analysis = analyze(tracer, run=headline).summary()

    run_id = spec.run_id or unique_run_id(
        spec.results_dir,
        time.strftime("%Y%m%d-%H%M%S") + "-" + "+".join(selected),
    )
    outcome = RunOutcome(
        run_id=run_id,
        results=results,
        spec=spec,
        traced=tracing_on,
        conformance=conformance,
        outputs=outputs,
        trace_spans=len(tracer.spans) if tracer is not None else 0,
        trace_runs=len(tracer.runs) if tracer is not None else 0,
        metric_families=len(tracer.metrics) if tracer is not None else 0,
        ascii_timeline=ascii_timeline,
        trace_snapshot=(
            tracer.snapshot()
            if spec.collect_trace and tracer is not None
            else None
        ),
    )
    if logger is not None:
        logger.event(
            "run.finished", run_id=run_id, cache_key=outcome.cache_key
        )
    if emit_manifest:
        run_dir = Path(spec.results_dir) / run_id
        if request.report:
            # Recorded in the manifest, so written before it.
            outputs["report"] = str(run_dir / "report.md")
        manifest = _build_manifest(
            outcome, selected, tracer, session, analysis
        )
        outcome.manifest = manifest
        outcome.manifest_path = manifest.write(run_dir / "manifest.json")
        if request.report:
            from repro.obs.report import write_report

            outcome.report_path = write_report(
                manifest, run_dir / "report.md"
            )
    return outcome


def _resilience_config(args, parser):
    """Build the ResilienceConfig requested on the CLI, or ``None``.

    Any resilience flag activates the session; ``--fault-plan`` alone
    gives fault injection with default policies, and policy flags alone
    give retries/deadlines/fallback with no injected faults.
    """
    wants = (
        args.fault_plan is not None
        or args.retry
        or args.backoff
        or args.deadline is not None
        or args.no_cpu_fallback
    )
    if not wants:
        return None
    from repro.errors import FaultInjectionError
    from repro.resilience import (
        NO_FAULTS,
        DegradePolicy,
        FaultPlan,
        ResilienceConfig,
        RetryPolicy,
        TimeoutPolicy,
    )

    plan = NO_FAULTS
    if args.fault_plan is not None:
        try:
            plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, FaultInjectionError) as exc:
            parser.error(f"--fault-plan: {exc}")
    kernel_deadline = transfer_deadline = None
    if args.deadline is not None:
        parts = args.deadline.split(",")
        if len(parts) > 2:
            parser.error("--deadline takes KERNEL or KERNEL,TRANSFER")
        try:
            kernel_deadline = float(parts[0])
            if len(parts) == 2:
                transfer_deadline = float(parts[1])
        except ValueError:
            parser.error(f"--deadline: not a number: {args.deadline!r}")
    try:
        return ResilienceConfig(
            plan=plan,
            retry=RetryPolicy(max_retries=args.retry, backoff=args.backoff),
            timeout=TimeoutPolicy(
                kernel_deadline=kernel_deadline,
                transfer_deadline=transfer_deadline,
            ),
            degrade=DegradePolicy(cpu_fallback=not args.no_cpu_fallback),
        )
    except FaultInjectionError as exc:
        parser.error(f"invalid resilience flags: {exc}")


def main(argv=None) -> int:
    # Imported here, not at the top: a cold `import` of the runner (a
    # serve worker, a library caller) parses no arguments.
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the "
        "simulated HPU platforms.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="coarser sweeps, quicker run"
    )
    # Accepted and ignored, so scripts that still pass a worker count
    # keep working: sweeps always run serially in this process.
    parser.add_argument("--jobs", metavar="N", help=argparse.SUPPRESS)
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render figure experiments as ASCII charts",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit results as one JSON object per experiment instead of "
        "tables",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the selection under cProfile and print the top 20 "
        "functions by cumulative time (the profiling recipe of "
        "docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        metavar="PATH",
        help="activate the repro.obs tracer and write a Chrome-trace "
        "JSON (chrome://tracing / Perfetto) of every simulated run",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        metavar="PATH",
        help="activate the repro.obs tracer and write the metrics "
        "registry (per-device/per-level counters) as JSON",
    )
    parser.add_argument(
        "--trace-ascii",
        action="store_true",
        help="with --trace-out/--metrics-out: also print the ASCII "
        "per-device timeline after the experiment output",
    )
    parser.add_argument(
        "--manifest",
        action="store_true",
        help="write a run manifest even without --trace-out/--metrics-out",
    )
    parser.add_argument(
        "--check-model",
        nargs="?",
        type=float,
        const=True,
        default=None,
        metavar="BAND",
        help="check every basic/advanced run against the analytical "
        "model at its own (α, y): activates tracing, records "
        "predicted-vs-simulated residuals in the manifest, and prints "
        "the conformance summary; BAND overrides the committed "
        "mean-relative-residual band (gate with 'repro-obs check')",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="write a self-contained Markdown report next to the run "
        "manifest (activates tracing and manifest emission)",
    )
    parser.add_argument(
        "--run-id",
        help="manifest directory name (default: <timestamp>-<experiments>)",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path("results"),
        metavar="DIR",
        help="where run manifests go (default: results/)",
    )
    parser.add_argument(
        "--fault-plan",
        type=Path,
        metavar="PATH",
        help="install a repro.resilience session injecting the faults "
        "described by this JSON plan (see docs/RESILIENCE.md) into "
        "every simulated run",
    )
    parser.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="retry failed device work up to N times (default 0)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="OPS",
        help="base exponential-backoff delay between retries, charged "
        "as simulated time (default 0)",
    )
    parser.add_argument(
        "--deadline",
        metavar="KERNEL[,TRANSFER]",
        help="per-kernel (and optionally per-transfer) deadlines in "
        "simulated ops; work exceeding a deadline raises "
        "DeviceTimeoutError and triggers recovery",
    )
    parser.add_argument(
        "--no-cpu-fallback",
        action="store_true",
        help="raise device errors instead of re-planning a lost GPU's "
        "remaining work onto the CPU",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="ID",
        help="registered workload id (repro.workloads) to retarget the "
        "figw experiment at — e.g. quicksort, strassen, fft; see "
        "docs/WORKLOADS.md",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="append structured JSON-lines events (repro.obs.log) for "
        "this run to PATH; the serve daemon and its workers share the "
        "same format, so one file can hold a whole fleet's logs",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    args = parser.parse_args(argv)

    if args.list:
        for key in EXPERIMENTS:
            print(key)
        return 0

    from repro.experiments.request import ProtocolError, validate_request

    try:
        request = validate_request(
            {
                "kind": "figure",
                "experiments": args.experiments or list(EXPERIMENTS),
                "fast": args.fast,
                "check_model": args.check_model,
                "report": args.report,
                "workload": args.workload,
            }
        )
    except ProtocolError as exc:
        # The request's check_model field is this CLI's --check-model.
        parser.error(str(exc).replace("check_model", "--check-model"))

    spec = RunSpec(
        request=request,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        trace_ascii=args.trace_ascii,
        manifest=args.manifest,
        run_id=args.run_id,
        results_dir=args.results_dir,
        resilience=_resilience_config(args, parser),
        argv=list(argv) if argv is not None else None,
        log_json=args.log_json,
    )

    def emit(key: str, result: ExperimentResult) -> None:
        if args.json:
            import json

            print(json.dumps(result.to_dict()))
            return
        print(result.render())
        if args.plot:
            from repro.experiments.plots import PLOTTERS

            plotter = PLOTTERS.get(key)
            if plotter is not None:
                print()
                print(plotter(result))
        print()

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    from repro.errors import ReproError

    try:
        outcome = run_request(spec, on_result=emit)
    except ReproError as exc:
        # A run that fails for a modelled reason (a fault plan's lost
        # device, an inadmissible plan) is a result, not a crash.
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if profiler is not None:
            profiler.disable()

    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)

    # -- observability artifacts ---------------------------------------
    if outcome.outputs.get("trace"):
        print(f"trace: {outcome.outputs['trace']} "
              f"({outcome.trace_spans} spans, {outcome.trace_runs} runs)")
    if outcome.outputs.get("metrics"):
        print(f"metrics: {outcome.outputs['metrics']} "
              f"({outcome.metric_families} metric families)")
    if outcome.ascii_timeline is not None:
        print()
        print(outcome.ascii_timeline)

    if args.check_model is not None and outcome.conformance is not None:
        conformance = outcome.conformance
        print(
            f"conformance: {conformance['verdict']} — "
            f"{conformance['checks']} runs checked, mean rel "
            f"residual {conformance['mean_rel_residual']:.4g} "
            f"(band {conformance['band']:.4g}), max signed "
            f"{conformance['max_signed_rel_residual']:.4g}"
        )

    if outcome.report_path is not None:
        print(f"report: {outcome.report_path}")
    if outcome.manifest_path is not None:
        print(f"manifest: {outcome.manifest_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
