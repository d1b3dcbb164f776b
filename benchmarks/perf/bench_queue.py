"""EventQueue microbenchmark: push/pop throughput of the heap queue.

Drives :class:`repro.sim.events.EventQueue` through three synthetic
workloads and reports events/second for each:

- ``push_pop``: push ``n`` randomly-timed events, then drain — the
  bulk-load shape;
- ``mixed``: interleaved pushes and pops against a small resident
  queue — the DES steady state, where the engine holds a handful of
  in-flight timeouts and alternates scheduling with draining;
- ``burst``: long runs of identical timestamps drained with
  ``pop_batch`` — the FIFO tie-break stress (simultaneous worker
  finishes).

Timestamps come from the library's seeded RNG, so runs are
repeatable.  Used by ``run_perf.py`` to fold
``queue_heap_<scenario>_events_per_s`` entries into
``BENCH_perf.json``; runnable standalone::

    PYTHONPATH=src python benchmarks/perf/bench_queue.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def _noop() -> None:
    pass


def _random_times(count: int, distinct: int, salt: str):
    """``count`` timestamps over ``distinct`` levels (seeded, ties likely)."""
    from repro.util.rng import make_rng

    rng = make_rng(None, "bench", "queue", salt)
    return [float(t) for t in rng.integers(0, distinct, size=count)]


def _scenario_push_pop(queue, times) -> int:
    for t in times:
        queue.push(t, _noop)
    while len(queue):
        queue.pop()
    return 2 * len(times)


def _scenario_mixed(queue, times) -> int:
    # Keep ~8 events resident: push two, pop one, like an engine with a
    # few outstanding timeouts.  Times are offset by the current clock
    # so the queue never pops into the past.
    ops = 0
    now = 0.0
    it = iter(times)
    for t in it:
        queue.push(now + t, _noop)
        ops += 1
        nxt = next(it, None)
        if nxt is not None:
            queue.push(now + nxt, _noop)
            ops += 1
        now, _ = queue.pop()
        ops += 1
        if len(queue) > 8:
            now, _ = queue.pop()
            ops += 1
    while len(queue):
        queue.pop()
        ops += 1
    return ops


def _scenario_burst(queue, times, run: int = 64) -> int:
    # Same-timestamp runs: every `run` events share one stamp; drain
    # with pop_batch, the engine's batched path.
    ops = 0
    for i, t in enumerate(times):
        queue.push(float(i // run), _noop)
        ops += 1
    while len(queue):
        _, callbacks = queue.pop_batch()
        ops += len(callbacks)
    return ops


SCENARIOS = {
    "push_pop": _scenario_push_pop,
    "mixed": _scenario_mixed,
    "burst": _scenario_burst,
}


def bench_queue(events: int = 50_000) -> dict:
    """Per-scenario throughput, ``events``/scenario.

    Returns flat ``queue_heap_<scenario>_events_per_s`` keys (the names
    the perf trajectory has always used) so the figures land alongside
    the other benchmarks in ``BENCH_perf.json``.
    """
    from repro.sim.events import EventQueue

    times = _random_times(events, distinct=events // 8, salt="times")
    results = {}
    for name, scenario in SCENARIOS.items():
        queue = EventQueue()
        start = time.perf_counter()
        ops = scenario(queue, times)
        elapsed = time.perf_counter() - start
        results[f"queue_heap_{name}_events_per_s"] = round(ops / elapsed)
    return results


if __name__ == "__main__":
    import json

    print(json.dumps(bench_queue(), indent=2))
