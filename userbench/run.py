"""The repository benchmark: cold CLI reproduction and served sweeps.

Usage (from the repository root)::

    python3 userbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

Workloads: ``cli-cold``, ``serve-distinct``, ``serve-shared`` (see
README.md).  ``--trace 0`` measures the end-to-end metrics with
nothing installed in the program; ``--trace 1`` runs the workload
once plainly and once under the span recorder and reports the
per-layer metrics.  Human-readable lines go to stdout first; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A record of the run (inputs, host facts, every figure)
is written under ``.userbench/records/``.

``--capture-reference`` rewrites ``reference/`` from the current
program; run it only on the commit the references are pinned to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("cli-cold", "serve-distinct", "serve-shared")


#: Units of the named figures each workload prints beside its metrics.
FIGURE_UNITS = {"pct": "%", "beyond": "count", "misses": "count", "rate": "ratio"}


def host_facts() -> dict:
    import numpy
    import scipy

    loops = []
    for _ in range(5):
        start = time.perf_counter()
        sum(range(10**6))
        loops.append(time.perf_counter() - start)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        # A fixed CPU loop, to compare host speed between records.
        "cpu_loop_ms": round(1000 * sorted(loops)[2], 2),
    }


def figure_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    suffix = name.rsplit("_", 1)[-1]
    return FIGURE_UNITS.get(suffix, {"s": "s", "mb": "MB"}.get(suffix, ""))


def capture_reference(work: str) -> None:
    from ubench import cli_cold

    os.makedirs(cli_cold.REFERENCE_DIR, exist_ok=True)
    for exp_id in cli_cold.list_ids(CHECKOUT, work):
        run = cli_cold.invoke(CHECKOUT, [exp_id, "--fast", "--json"], work)
        if not run["ok"]:
            raise SystemExit(f"{exp_id}: {run.get('error')}")
        with open(os.path.join(cli_cold.REFERENCE_DIR, f"{exp_id}.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(run["stdout"])
        print(f"reference: {exp_id}")


def _terminate(*_) -> None:
    # A terminated run still stops its daemons (their `finally` blocks);
    # a second signal must not cut that clean-up short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="userbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "repro", "__init__.py")):
        print(f"userbench: no program sources under {CHECKOUT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    os.chdir(CHECKOUT)
    signal.signal(signal.SIGTERM, _terminate)
    work = os.path.abspath(os.path.join(".userbench", f"run-{os.getpid()}"))
    os.makedirs(work)
    try:
        if args.capture_reference:
            capture_reference(work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "cli-cold":
            from ubench import cli_cold

            result = cli_cold.run(CHECKOUT, work, args.seed, args.seconds,
                                  bool(args.trace))
        else:
            from ubench import serve_load

            result = serve_load.run(CHECKOUT, work, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"] + result.get("span_failures", [])
    attempted = result["attempted"] + result.get("span_attempted", 0)
    metrics = result["layer_metrics"] if args.trace else result["metrics"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "unix_time": time.time(),
        **{k: v for k, v in result.items() if k not in ("metrics", "layer_metrics")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(".userbench", "records"), exist_ok=True)
    path = os.path.join(
        ".userbench", "records",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    for name, value in sorted(record["host"].items()):
        print(f"host.{name} = {value}")
    for name, value in sorted(result["figures"].items()):
        print(f"{name} = {value} {figure_unit(name)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    print(f"record: {path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
