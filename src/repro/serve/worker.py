"""Executor-side job execution for the serve daemon.

The daemon never simulates in its own event loop: each job becomes one
:func:`execute_job` call on an executor — a process-pool worker by
default (clean ambient tracer/resilience state per job, true
concurrency) or the single-threaded fallback executor.  Everything
crossing the boundary is picklable: the payload is a plain dict around
a :class:`~repro.experiments.runner.RunSpec`, and the result is the
:class:`~repro.experiments.runner.RunOutcome` digest.  Pool workers are
reused across jobs, so each keeps its own exact tuner memo warm; no
tuner state crosses the boundary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.runner import RunSpec, run_request


def build_spec(
    request,
    results_dir: str,
    run_id: Optional[str] = None,
    correlation_id: Optional[str] = None,
    collect_trace: bool = False,
    log_json: Optional[str] = None,
) -> RunSpec:
    """The RunSpec executing one validated request.

    The request passes through as is, with the daemon-chosen run id and
    results tree.  ``correlation_id`` / ``collect_trace`` / ``log_json``
    are the live telemetry knobs: the job id threaded into the runner's
    tracer and log events, whether to ship the engine trace back for
    stitching, and the shared JSON-lines log path.  None of them enters
    the canonical request (``collect_trace`` maps onto the ``traced``
    observability profile the daemon already resolved into its
    canonical), so they never change a cache key the daemon didn't
    already account for.
    """
    return RunSpec(
        request=request,
        manifest=True,
        run_id=run_id,
        results_dir=Path(results_dir),
        argv=["repro-serve", request.kind],
        correlation_id=correlation_id,
        collect_trace=collect_trace,
        log_json=log_json,
    )


def execute_job(payload: dict) -> dict:
    """Run one job; the single entry point shipped to the executor.

    ``payload`` is ``{"spec": spec}`` with a :func:`build_spec` result;
    the reply carries the outcome digest.
    """
    spec = payload["spec"]
    log = None
    if spec.log_json:
        from repro.obs.log import JsonLogger

        log = JsonLogger(
            spec.log_json, "worker", correlation_id=spec.correlation_id
        )
        log.event("serve.worker.executing", run_id=spec.run_id)
    outcome = run_request(spec)
    if log is not None:
        log.event(
            "serve.worker.finished",
            run_id=outcome.run_id,
            cache_key=outcome.cache_key,
        )
    reply = {"outcome": outcome.to_dict()}
    if outcome.trace_snapshot is not None:
        # Shipped separately from the JSON-able digest: the snapshot is
        # picklable row data for the daemon's trace stitcher only.
        reply["trace"] = outcome.trace_snapshot
    return reply
