"""``repro-serve`` — run and talk to the simulation service.

Server side::

    repro-serve serve --socket /tmp/repro.sock --concurrency 2

Client side (same ``--socket`` or ``--host``/``--port``)::

    repro-serve submit fig8 --fast --wait      # figure job
    repro-serve sweep conf --n 1000000 --wait  # custom grid job
    repro-serve status JOB_ID [--wait]
    repro-serve result JOB_ID
    repro-serve cancel JOB_ID
    repro-serve list / stats / ping
    repro-serve metrics [--prometheus]
    repro-serve top [--interval 2]
    repro-serve shutdown [--drain]

Client commands print JSON (the job snapshot / stats object) so they
compose with ``jq`` and shell scripts; exit status is non-zero when
the daemon rejects the request or the job ends ``failed``/``cancelled``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="unix socket path (wins over --host/--port)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP host (default: %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (required without --socket)"
    )


def _client(args: argparse.Namespace) -> ServeClient:
    if args.socket is None and not args.port:
        raise SystemExit(
            "repro-serve: need --socket PATH or --port N to reach a daemon"
        )
    return ServeClient(
        socket_path=args.socket, host=args.host, port=args.port
    )


def _print(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _job_exit_code(job: dict) -> int:
    return 0 if job.get("state") in (None, "queued", "running", "done") else 1


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import JobDaemon
    from repro.serve.transport import ServeServer

    daemon = JobDaemon(
        results_dir=args.results_dir,
        concurrency=args.concurrency,
        executor=args.executor,
        telemetry_interval=args.telemetry_interval,
        telemetry_capacity=args.telemetry_capacity,
        trace_jobs=args.trace_jobs,
        log_json=args.log_json,
        flight_dump=args.flight_dump,
    )
    server = ServeServer(
        daemon, socket_path=args.socket, host=args.host, port=args.port
    )

    async def _serve() -> dict:
        await server.start()
        print(
            f"repro-serve: listening on {server.endpoint} "
            f"(protocol {PROTOCOL_VERSION}, concurrency "
            f"{daemon.concurrency}, executor {daemon.executor_kind})",
            flush=True,
        )
        for note in daemon.notes:
            print(f"repro-serve: note: {note}", file=sys.stderr, flush=True)
        try:
            return await server.serve_until_shutdown()
        except asyncio.CancelledError:
            return await server.stop()

    try:
        stats = asyncio.run(_serve())
    except KeyboardInterrupt:
        # asyncio.run already cancelled _serve, which stopped cleanly.
        print("repro-serve: interrupted, daemon stopped", file=sys.stderr)
        return 130
    if args.metrics_out:
        daemon.write_metrics(args.metrics_out)
        print(f"repro-serve: metrics: {args.metrics_out}", flush=True)
    if args.trace_jobs:
        print(f"repro-serve: trace: {args.trace_jobs}", flush=True)
    if args.flight_dump:
        print(f"repro-serve: flight: {args.flight_dump}", flush=True)
    completed = stats.get("states", {})
    print(
        f"repro-serve: stopped after {sum(completed.values())} job(s) "
        f"(cache hit rate {stats.get('cache_hit_rate', 0.0):.0%})",
        flush=True,
    )
    return 0


# ----------------------------------------------------------------------
# client commands
# ----------------------------------------------------------------------
def _finish(client: ServeClient, job: dict, args: argparse.Namespace) -> int:
    """Shared --wait handling for submit/sweep."""
    if getattr(args, "wait", False) and job.get("state") not in (
        "done",
        "failed",
        "cancelled",
    ):
        job = client.status(job["job_id"], wait=True, timeout=args.timeout)
    _print(job)
    return _job_exit_code(job)


def _policy_fields(args: argparse.Namespace, request: dict) -> None:
    if args.priority:
        request["priority"] = args.priority
    if args.retries or args.backoff:
        request["retry"] = {
            "max_retries": args.retries,
            "backoff": args.backoff,
        }
    if args.job_timeout is not None:
        request["timeout_s"] = args.job_timeout


def _cmd_submit(args: argparse.Namespace) -> int:
    request = {
        "protocol": PROTOCOL_VERSION,
        "kind": "figure",
        "experiments": args.experiments,
        "fast": not args.full,
    }
    if args.queue_backend:
        request["queue_backend"] = args.queue_backend
    if args.no_macro:
        request["macro"] = False
    if args.check_model is not None:
        request["check_model"] = args.check_model
    if args.report:
        request["report"] = True
    if args.workload:
        request["workload"] = args.workload
    _policy_fields(args, request)
    client = _client(args)
    return _finish(client, client.submit(request), args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    request = {
        "protocol": PROTOCOL_VERSION,
        "kind": "sweep",
        "platform": args.platform,
        "n": args.n,
        "fast": not args.full,
    }
    if args.alphas:
        request["alphas"] = args.alphas
    if args.levels:
        request["levels"] = args.levels
    if args.adaptive is not None:
        request["adaptive"] = args.adaptive
    if args.no_cpu_fallback:
        request["include_cpu_fallback"] = False
    if args.noise is not None:
        request["noise_amplitude"] = args.noise
    if args.seed is not None:
        request["seed"] = args.seed
    if args.queue_backend:
        request["queue_backend"] = args.queue_backend
    if args.no_macro:
        request["macro"] = False
    if args.workload:
        request["workload"] = args.workload
    _policy_fields(args, request)
    client = _client(args)
    return _finish(client, client.submit(request), args)


def _cmd_status(args: argparse.Namespace) -> int:
    job = _client(args).status(
        args.job_id, wait=args.wait, timeout=args.timeout
    )
    _print(job)
    return _job_exit_code(job)


def _cmd_result(args: argparse.Namespace) -> int:
    response = _client(args).result(
        args.job_id,
        timeout=args.timeout,
        include_manifest=not args.no_manifest,
    )
    _print(
        {"job": response["job"], "manifest": response.get("manifest")}
        if not args.no_manifest
        else response["job"]
    )
    return _job_exit_code(response["job"])


def _cmd_cancel(args: argparse.Namespace) -> int:
    _print(_client(args).cancel(args.job_id))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    response = _client(args).list_jobs()
    _print({"jobs": response["jobs"], "stats": response["stats"]})
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _print(_client(args).stats())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    scraped = _client(args).metrics()
    if args.prometheus:
        sys.stdout.write(scraped["prometheus"])
    else:
        _print(scraped["metrics"])
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    return run_top(
        _client(args),
        interval_s=args.interval,
        iterations=args.iterations or None,
        clear=not args.no_clear,
    )


def _cmd_ping(args: argparse.Namespace) -> int:
    _print(_client(args).ping())
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    _print(_client(args).shutdown(drain=args.drain))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="simulation-as-a-service daemon and client",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the job daemon")
    _add_endpoint_args(p)
    p.add_argument(
        "--results-dir",
        default="results",
        help="results tree shared with repro-experiments (default: %(default)s)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="max jobs running at once (default: %(default)s)",
    )
    p.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="job executor (thread forces concurrency 1)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write service metrics JSON here on shutdown",
    )
    p.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample daemon stats into the flight recorder every "
        "SECONDS (default: telemetry off)",
    )
    p.add_argument(
        "--telemetry-capacity",
        type=int,
        default=256,
        metavar="N",
        help="flight-recorder ring size in frames (default: %(default)s)",
    )
    p.add_argument(
        "--flight-dump",
        metavar="PATH",
        default=None,
        help="dump the flight recorder here (JSON lines) on shutdown "
        "or scheduler crash; needs --telemetry-interval",
    )
    p.add_argument(
        "--trace-jobs",
        metavar="PATH",
        default=None,
        help="collect per-job engine traces and write one stitched "
        "Chrome/Perfetto trace here on shutdown",
    )
    p.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="append structured JSON-lines events (daemon + workers + "
        "runner, correlated by job id) to PATH",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a figure job")
    _add_endpoint_args(p)
    p.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment ids (fig8, table2, ...) or 'all'",
    )
    p.add_argument("--full", action="store_true", help="full-size grids")
    p.add_argument("--queue-backend", default=None)
    p.add_argument("--no-macro", action="store_true")
    p.add_argument(
        "--check-model",
        nargs="?",
        type=float,
        const=True,
        default=None,
        metavar="BAND",
        help="run the analytic-model conformance oracle",
    )
    p.add_argument("--report", action="store_true")
    p.add_argument(
        "--workload",
        default=None,
        metavar="ID",
        help="registered workload id for the figw experiment "
        "(quicksort, strassen, fft, ...; see docs/WORKLOADS.md)",
    )
    _add_job_policy_args(p)
    _add_wait_args(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("sweep", help="submit a custom grid job")
    _add_endpoint_args(p)
    p.add_argument("platform", help="platform preset (HPU1, HPU2)")
    p.add_argument(
        "--n", type=int, nargs="+", required=True, help="input sizes"
    )
    p.add_argument("--alphas", type=float, nargs="+", default=None)
    p.add_argument("--levels", type=int, nargs="+", default=None)
    p.add_argument(
        "--adaptive",
        dest="adaptive",
        action="store_true",
        default=None,
        help="coarse-to-fine alpha refinement",
    )
    p.add_argument(
        "--no-adaptive", dest="adaptive", action="store_false"
    )
    p.add_argument("--no-cpu-fallback", action="store_true")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--full", action="store_true", help="full-size grids")
    p.add_argument("--queue-backend", default=None)
    p.add_argument("--no-macro", action="store_true")
    p.add_argument(
        "--workload",
        default=None,
        metavar="ID",
        help="registered workload id to sweep instead of mergesort",
    )
    _add_job_policy_args(p)
    _add_wait_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("status", help="job snapshot")
    _add_endpoint_args(p)
    p.add_argument("job_id")
    p.add_argument(
        "--wait", action="store_true", help="long-poll until terminal"
    )
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("result", help="wait for a job and print its manifest")
    _add_endpoint_args(p)
    p.add_argument("job_id")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--no-manifest", action="store_true")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("cancel", help="cancel a job")
    _add_endpoint_args(p)
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("list", help="all jobs + stats")
    _add_endpoint_args(p)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("stats", help="queue/cache/latency stats")
    _add_endpoint_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "metrics", help="scrape the metrics registry (JSON or Prometheus)"
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of JSON",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "top", help="live terminal dashboard of a running daemon"
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (default: until interrupted)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("ping", help="daemon liveness")
    _add_endpoint_args(p)
    p.set_defaults(func=_cmd_ping)

    p = sub.add_parser("shutdown", help="stop the daemon")
    _add_endpoint_args(p)
    p.add_argument(
        "--drain",
        action="store_true",
        help="finish queued jobs before stopping",
    )
    p.set_defaults(func=_cmd_shutdown)

    return parser


def _add_job_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--priority", type=int, default=0, help="higher runs first"
    )
    parser.add_argument(
        "--retries", type=int, default=0, help="job-level retry attempts"
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        help="base retry backoff seconds",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock deadline",
    )


def _add_wait_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="long-poll timeout seconds (with --wait)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "submit" and args.experiments == ["all"]:
        from repro.experiments.runner import EXPERIMENTS

        args.experiments = list(EXPERIMENTS)
    try:
        return args.func(args)
    except (ServeError, ProtocolError) as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(
            f"repro-serve: cannot reach daemon: {exc}", file=sys.stderr
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
