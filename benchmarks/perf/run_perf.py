#!/usr/bin/env python
"""Perf-regression harness: time the hot paths, write BENCH_perf.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--out PATH]

Times four levels of the stack and records them, plus the improvement
factor over the recorded seed baseline, in ``BENCH_perf.json`` at the
repo root so successive PRs can track the perf trajectory:

- ``engine_events_per_s``: raw DES event throughput (timeout chains),
  on the process-default queue backend;
- ``queue_<backend>_<scenario>_events_per_s``: the EventQueue
  microbenchmark (``bench_queue.py``) — push/pop, mixed steady-state
  and same-timestamp-burst throughput for every registered backend;
- ``executor_advanced_fast_ms`` / ``executor_advanced_reference_ms``:
  one advanced-schedule run (n = 2^20, HPU1) on the macro-task fast
  path vs the process-per-worker reference path — the harness asserts
  the two makespans are identical while timing them;
- ``autotune_full_runs`` / ``autotune_adaptive_runs``: executor runs
  spent by the exhaustive grid vs the coarse-to-fine search;
- ``fig8_fast_s``: wall-clock of the full Fig. 8 ``--fast`` pipeline
  (the acceptance metric; seed: ~4.9 s on the reference machine),
  best-of-3 to shave scheduler noise;
- ``fig8_fast_traced_s`` / ``trace_overhead_pct``: the same pipeline
  with the :mod:`repro.obs` tracer active.  Since the macro fast path
  landed, this gap is dominated by the traced run forgoing the macro
  path (tracing is defined in terms of the event stream, so traced
  runs pump the DES), not by span/metric recording itself — it prices
  what turning tracing on costs, which is mostly "the DES again";
- ``fig8_fast_telemetry_s`` / ``telemetry_overhead_pct``: the untraced
  pipeline with a live :class:`repro.obs.live.TelemetrySampler`
  polling at 20 Hz — what leaving the service flight recorder on
  costs.  ``--guard-telemetry-pct PCT`` turns that into an absolute
  CI limit (the sampler only reads, so this should stay in the noise);
- ``cpu_count``: the cores the host exposes, to tell hosts apart when
  comparing trajectories.

``--guard-fig8-pct PCT`` additionally compares the untraced
``fig8_fast_s`` against the recorded baseline (repo-root
``BENCH_perf.json`` by default) and exits non-zero past the limit —
CI's guard that instrumentation stays free when tracing is off.
``--guard-engine-pct PCT`` guards ``engine_events_per_s`` against
throughput drops the same way.

Besides overwriting ``BENCH_perf.json`` (the committed baseline), each
run appends one compact line to ``BENCH_history.jsonl`` so the perf
trajectory across PRs accumulates instead of being overwritten.

Numbers are wall-clock on whatever machine runs this, so compare
trajectories on one machine, not absolute values across machines.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: fig8 --fast wall-clock of the seed tree on the reference machine,
#: recorded before the fast-path PR.  The acceptance criterion of that
#: PR was >= 4x against this number.
SEED_FIG8_FAST_S = 4.86


def bench_engine_events(events: int = 200_000) -> float:
    """DES event throughput: one long timeout chain, events/second."""
    from repro.sim import Simulator, Timeout

    sim = Simulator()

    def chain():
        for _ in range(events):
            yield Timeout(1.0)

    start = time.perf_counter()
    sim.run_process(chain())
    return events / (time.perf_counter() - start)


def bench_executor(repeats: int = 20) -> dict:
    """Advanced-schedule run: fast path vs reference path, ms/run."""
    from repro.algorithms.mergesort.hybrid import make_mergesort_workload
    from repro.core.schedule import AdvancedSchedule, ScheduleExecutor
    from repro.hpu import HPU1

    workload = make_mergesort_workload(1 << 20)
    plan = AdvancedSchedule().plan(
        workload, HPU1.parameters, alpha=0.2, transfer_level=12
    )
    timings = {}
    makespans = {}
    for label, fast in (("fast", True), ("reference", False)):
        executor = ScheduleExecutor(HPU1, workload, fast=fast)
        start = time.perf_counter()
        for _ in range(repeats):
            result = executor.run_advanced(plan)
        timings[label] = (time.perf_counter() - start) / repeats * 1000.0
        makespans[label] = result.makespan
    if makespans["fast"] != makespans["reference"]:
        raise AssertionError(
            f"fast/reference makespans diverged: {makespans}"
        )
    return {
        "executor_advanced_fast_ms": round(timings["fast"], 3),
        "executor_advanced_reference_ms": round(timings["reference"], 3),
        "executor_fast_speedup": round(
            timings["reference"] / timings["fast"], 2
        ),
    }


def bench_autotune() -> dict:
    """Executor runs spent: exhaustive grid vs coarse-to-fine search."""
    from repro.algorithms.mergesort.hybrid import make_mergesort_workload
    from repro.core.autotune import AutoTuner
    from repro.hpu import HPU1

    n = 1 << 18

    full_tuner = AutoTuner(HPU1, make_mergesort_workload(n))
    full = full_tuner.tune()
    adaptive_tuner = AutoTuner(HPU1, make_mergesort_workload(n))
    adaptive = adaptive_tuner.tune_adaptive()
    return {
        "autotune_full_runs": full.evaluations,
        "autotune_adaptive_runs": adaptive.evaluations,
        "autotune_adaptive_speedup_gap_pct": round(
            (full.speedup - adaptive.speedup) / full.speedup * 100.0, 3
        ),
    }


def _fig8_once(traced: bool = False) -> float:
    """One cold-cache fig8 --fast pipeline run, wall-clock seconds."""
    from repro.experiments import common, fig8_speedup_vs_n
    from repro.obs import tracing

    common._TUNERS.clear()
    if traced:
        start = time.perf_counter()
        with tracing():
            fig8_speedup_vs_n.run(fast=True)
        return time.perf_counter() - start
    start = time.perf_counter()
    fig8_speedup_vs_n.run(fast=True)
    return time.perf_counter() - start


def bench_fig8_fast(best_of: int = 3) -> float:
    """Wall-clock of the full fig8 --fast pipeline (cold tuner caches).

    Best of ``best_of`` runs: the pipeline is deterministic, so the
    minimum is the least scheduler-noise-polluted sample.
    """
    return min(_fig8_once() for _ in range(best_of))


def bench_fig8_fast_traced(best_of: int = 3) -> float:
    """Same pipeline with the repro.obs tracer active (best-of-N).

    The gap against :func:`bench_fig8_fast` prices turning tracing on.
    With the macro fast path in place that gap is dominated by the
    traced run pumping the DES (the macro path requires no active
    tracer), with the append-only recording tax on top.  The untraced
    number must not move at all when tracing code changes — hot paths
    only pay an ``is not None`` check when tracing is off.
    """
    return min(_fig8_once(traced=True) for _ in range(best_of))


def bench_fig8_fast_telemetry(best_of: int = 3) -> float:
    """The untraced fig8 --fast pipeline with a TelemetrySampler live.

    The sampler thread polls a stats-shaped source on an aggressively
    short interval (50 ms — 20x the daemon's default rate) for the whole
    run.  The gap against :func:`bench_fig8_fast` is what "leaving the
    flight recorder on" costs a busy service: it must stay within a few
    percent (the sampler only reads, off the hot path), and the
    simulated numbers must not move at all.
    """
    from repro.obs.live import TelemetrySampler

    source_calls = [0]

    def source() -> dict:
        # Stats-shaped payload, like JobDaemon.telemetry_snapshot().
        source_calls[0] += 1
        return {"queue_depth": 0, "running": 1, "frames": source_calls[0]}

    best = None
    for _ in range(best_of):
        sampler = TelemetrySampler(source, interval_s=0.05, capacity=256)
        sampler.start()
        try:
            elapsed = _fig8_once()
        finally:
            sampler.stop()
        best = elapsed if best is None else min(best, elapsed)
    return best


def append_history(path: Path, report: dict) -> None:
    """Append one compact line per harness run to ``BENCH_history.jsonl``.

    ``BENCH_perf.json`` is overwritten every run (it is the committed
    baseline); the history file accumulates, so the perf trajectory
    across PRs survives on one machine without digging through git.
    """
    bench = report.get("benchmarks", {})
    line = {
        "generated_unix": report.get("generated_unix"),
        "python": report.get("python"),
        "machine": report.get("machine"),
        "engine_events_per_s": bench.get("engine_events_per_s"),
        "fig8_fast_s": bench.get("fig8_fast_s"),
        "trace_overhead_pct": bench.get("trace_overhead_pct"),
        "telemetry_overhead_pct": bench.get("telemetry_overhead_pct"),
        "cpu_count": bench.get("cpu_count"),
    }
    with path.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def guard_telemetry(overhead_pct: float, pct: float) -> int:
    """Fail if the live sampler costs more than ``pct`` percent.

    An absolute limit, not baseline-relative: the whole point of the
    flight recorder is to be cheap enough to leave on, and "cheap" is a
    property of the design, not of last week's number.
    """
    print(
        f"telemetry guard: sampler overhead {overhead_pct:+.1f}% "
        f"(limit +{pct:.0f}%)"
    )
    if overhead_pct > pct:
        print("telemetry guard: FAIL — live sampling costs too much")
        return 1
    return 0


def guard_fig8(measured_s: float, baseline: dict, pct: float) -> int:
    """Fail (non-zero) if fig8 --fast regressed more than ``pct`` percent.

    Compares against ``benchmarks.fig8_fast_s`` of a previously recorded
    report — normally the committed repo-root ``BENCH_perf.json`` — so
    CI catches accidental slowdowns on the acceptance metric.  Only
    meaningful when baseline and measurement ran on comparable machines.
    """
    base_s = baseline.get("benchmarks", {}).get("fig8_fast_s")
    if not base_s:
        print("perf guard: baseline has no fig8_fast_s, skipping")
        return 0
    regression_pct = (measured_s - base_s) / base_s * 100.0
    print(
        f"perf guard: fig8 --fast {measured_s:.3f}s vs baseline "
        f"{base_s:.3f}s ({regression_pct:+.1f}%, limit +{pct:.0f}%)"
    )
    if regression_pct > pct:
        print("perf guard: FAIL — fig8 --fast regressed past the limit")
        return 1
    return 0


def guard_engine(measured: float, baseline: dict, pct: float) -> int:
    """Fail if DES event throughput dropped more than ``pct`` percent.

    Compares ``engine_events_per_s`` against the recorded baseline —
    the event core is the floor every simulated run stands on, so a
    silent queue regression shows up here before it shows up in fig8.
    """
    base = baseline.get("benchmarks", {}).get("engine_events_per_s")
    if not base:
        print("engine guard: baseline has no engine_events_per_s, skipping")
        return 0
    drop_pct = (base - measured) / base * 100.0
    print(
        f"engine guard: {measured:,.0f} events/s vs baseline "
        f"{base:,.0f} ({-drop_pct:+.1f}%, limit -{pct:.0f}%)"
    )
    if drop_pct > pct:
        print("engine guard: FAIL — DES event throughput regressed "
              "past the limit")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--guard-fig8-pct",
        type=float,
        metavar="PCT",
        help="exit non-zero if fig8 --fast is more than PCT%% slower "
        "than the recorded baseline (repo-root BENCH_perf.json)",
    )
    parser.add_argument(
        "--guard-engine-pct",
        type=float,
        metavar="PCT",
        help="exit non-zero if DES event throughput "
        "(engine_events_per_s) is more than PCT%% below the recorded "
        "baseline",
    )
    parser.add_argument(
        "--guard-telemetry-pct",
        type=float,
        metavar="PCT",
        help="exit non-zero if running with a live TelemetrySampler "
        "costs more than PCT%% wall-clock over the unsampled pipeline "
        "(an absolute limit, no baseline involved)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="append one compact JSON line per run here "
        "(default: repo-root BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--guard-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="baseline report for the --guard-* checks "
        "(default: repo-root BENCH_perf.json)",
    )
    args = parser.parse_args(argv)
    # Fail on an unwritable destination now, not after minutes of
    # benchmarking.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    # Snapshot the guard baseline before benchmarks run: --out may point
    # at the same file the guard compares against.
    guarding = (
        args.guard_fig8_pct is not None
        or args.guard_engine_pct is not None
    )
    guard_baseline = None
    if guarding and args.guard_baseline.exists():
        guard_baseline = json.loads(args.guard_baseline.read_text())

    import os

    from bench_queue import bench_queue_backends

    engine_rate = round(bench_engine_events())
    results = {"engine_events_per_s": engine_rate}
    results.update(bench_queue_backends())
    results.update(bench_executor())
    results.update(bench_autotune())
    fig8_s = bench_fig8_fast()
    results["fig8_fast_s"] = round(fig8_s, 3)
    results["fig8_fast_vs_seed_speedup"] = round(SEED_FIG8_FAST_S / fig8_s, 2)
    fig8_traced_s = bench_fig8_fast_traced()
    results["fig8_fast_traced_s"] = round(fig8_traced_s, 3)
    results["trace_overhead_pct"] = round(
        (fig8_traced_s - fig8_s) / fig8_s * 100.0, 1
    )
    fig8_telemetry_s = bench_fig8_fast_telemetry()
    results["fig8_fast_telemetry_s"] = round(fig8_telemetry_s, 3)
    telemetry_overhead_pct = round(
        (fig8_telemetry_s - fig8_s) / fig8_s * 100.0, 1
    )
    results["telemetry_overhead_pct"] = telemetry_overhead_pct
    results["cpu_count"] = os.cpu_count() or 1

    report = {
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed_baseline": {"fig8_fast_s": SEED_FIG8_FAST_S},
        "benchmarks": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    append_history(args.history, report)
    print(json.dumps(report, indent=2))
    status = 0
    if args.guard_telemetry_pct is not None:
        # Absolute limit — runs even without a recorded baseline.
        status |= guard_telemetry(
            telemetry_overhead_pct, args.guard_telemetry_pct
        )
    if guarding and guard_baseline is None:
        print(f"perf guard: no baseline at {args.guard_baseline}, skipping")
        return status
    if args.guard_fig8_pct is not None:
        status |= guard_fig8(fig8_s, guard_baseline, args.guard_fig8_pct)
    if args.guard_engine_pct is not None:
        status |= guard_engine(
            engine_rate, guard_baseline, args.guard_engine_pct
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
