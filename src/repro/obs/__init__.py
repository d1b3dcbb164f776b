"""repro.obs — observability for the simulated HPU.

Structured span tracing, a metrics registry, Chrome-trace / metrics /
ASCII exporters, and run manifests.  The simulator, the OpenCL layer,
the schedule executor and the auto-tuner carry cheap, no-op-by-default
instrumentation hooks; activating a :class:`Tracer` (directly, via the
:func:`tracing` context manager, or through the experiment runner's
``--trace-out`` / ``--metrics-out`` flags) turns them on without
changing a single simulated result.

Quick tour::

    from repro.obs import tracing, chrome_trace, write_chrome_trace

    with tracing() as tr:
        result = ScheduleExecutor(HPU1, workload).run_advanced(plan)

    write_chrome_trace("trace.json", tr)       # chrome://tracing
    tr.metrics.counter("gpu.kernel_launches").total()
    print(ascii_report(tr))                    # terminal timeline

See ``docs/OBSERVABILITY.md`` for the full walkthrough.
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so the hot paths that import only the tracer and metrics
# do not also load the exporters, trace analysis, live telemetry, logs
# and reports.
_EXPORTS = {
    "Tracer": "tracer",
    "Span": "tracer",
    "Instant": "tracer",
    "RunRecord": "tracer",
    "active": "tracer",
    "activate": "tracer",
    "deactivate": "tracer",
    "tracing": "tracer",
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "histogram_quantile": "metrics",
    "chrome_trace": "export",
    "write_chrome_trace": "export",
    "metrics_json": "export",
    "write_metrics": "export",
    "prometheus_text": "export",
    "parse_prometheus_text": "export",
    "ascii_report": "export",
    "FlightRecorder": "live",
    "TelemetrySampler": "live",
    "sla_block": "live",
    "stitch_chrome_trace": "live",
    "write_stitched_trace": "live",
    "JsonLogger": "log",
    "read_log": "log",
    "RunManifest": "manifest",
    "platform_manifest": "manifest",
    "TraceAnalysis": "analysis",
    "DeviceUsage": "analysis",
    "LevelUsage": "analysis",
    "Bubble": "analysis",
    "CriticalStep": "analysis",
    "analyze": "analysis",
    "longest_run": "analysis",
    "append_entry": "index",
    "index_line": "index",
    "load_index": "index",
    "render_markdown": "report",
    "render_html": "report",
    "write_report": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
