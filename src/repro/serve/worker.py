"""Executor-side job execution for the serve daemon.

The daemon never simulates in its own event loop: each job becomes one
:func:`execute_job` call on an executor — a process-pool worker by
default (clean ambient tracer/resilience state per job, true
concurrency) or the single-threaded fallback executor.  Everything
crossing the boundary is picklable: the payload is a plain dict around
a :class:`~repro.experiments.runner.RunSpec`, and the result is the
:class:`~repro.experiments.runner.RunOutcome` digest plus the fresh
tuner-cache entries for the daemon's job-scoped merge-back
(:func:`repro.experiments.common.export_tuner_state`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.runner import RunSpec, run_request


def build_spec(
    canonical: dict,
    request,
    results_dir: str,
    run_id: Optional[str] = None,
    correlation_id: Optional[str] = None,
    collect_trace: bool = False,
    log_json: Optional[str] = None,
) -> RunSpec:
    """The RunSpec executing one validated request.

    Built from the *validated* request (grids, flags) with the
    daemon-chosen run id and results tree.  ``correlation_id`` / ``collect_trace`` / ``log_json`` are the live
    telemetry knobs: the job id threaded into the runner's tracer and
    log events, whether to ship the engine trace back for stitching,
    and the shared JSON-lines log path.  None of them enters the
    canonical request (``collect_trace`` maps onto the pre-existing
    ``traced`` observability profile the daemon already resolved into
    ``canonical``), so they never change a cache key the daemon didn't
    already account for.
    """
    if request.kind == "sweep":
        sweep = {
            "platform": request.platform,
            "n": list(request.n),
            "alphas": (
                list(request.alphas) if request.alphas is not None else None
            ),
            "levels": (
                list(request.levels) if request.levels is not None else None
            ),
            "adaptive": request.adaptive,
            "include_cpu_fallback": request.include_cpu_fallback,
            "noise_amplitude": request.noise_amplitude,
            "seed": request.seed,
            "workload": request.workload,
        }
        experiments = ()
    else:
        sweep = None
        experiments = tuple(request.experiments)
    return RunSpec(
        experiments=experiments,
        fast=request.fast,
        queue_backend=request.queue_backend,
        macro=request.macro,
        check_model=request.check_model,
        report=request.report,
        manifest=True,
        run_id=run_id,
        results_dir=Path(results_dir),
        sweep=sweep,
        workload=request.workload,
        argv=["repro-serve", request.kind],
        correlation_id=correlation_id,
        collect_trace=collect_trace,
        log_json=log_json,
    )


def execute_job(payload: dict) -> dict:
    """Run one job; the single entry point shipped to the executor.

    ``payload`` carries ``spec`` (a :func:`build_spec` result) and
    optionally ``tuner_state`` (the daemon's accumulated memo).  The
    reply carries the outcome digest and the tuner entries this job
    added — pool workers are reused across jobs, so the baseline
    snapshot keeps the reply incremental rather than re-shipping the
    whole warm cache every time.
    """
    from repro.experiments.common import (
        export_tuner_state,
        seed_tuner_state,
        snapshot_tuner_keys,
    )

    spec = payload["spec"]
    log = None
    if spec.log_json:
        from repro.obs.log import JsonLogger

        log = JsonLogger(
            spec.log_json, "worker", correlation_id=spec.correlation_id
        )
        log.event("serve.worker.executing", run_id=spec.run_id)
    tuner_state = payload.get("tuner_state")
    if tuner_state:
        seed_tuner_state(tuner_state)
    baseline = snapshot_tuner_keys()
    outcome = run_request(spec)
    if log is not None:
        log.event(
            "serve.worker.finished",
            run_id=outcome.run_id,
            cache_key=outcome.cache_key,
        )
    reply = {
        "outcome": outcome.to_dict(),
        "tuner_state": export_tuner_state(baseline),
    }
    if outcome.trace_snapshot is not None:
        # Shipped separately from the JSON-able digest: the snapshot is
        # picklable row data for the daemon's trace stitcher only.
        reply["trace"] = outcome.trace_snapshot
    return reply
