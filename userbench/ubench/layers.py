"""Fold the span files of one instrumented phase into layer metrics.

Layer names follow the program's modules; see README.md for which
end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Tuple

from ubench.stats import layer_self_times, median, self_time, slope

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "import.runner_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.serve_s": "s",
    "experiments.run_request_s": "s",
    "experiments.points": "count",
    "parallel.map_calls": "count",
    "parallel.map_s": "s",
    "parallel.fallbacks": "count",
    "autotune.evaluations": "count",
    "autotune.memo_hit_ratio": "ratio",
    "autotune.tune_s": "s",
    "model.optimize_calls": "count",
    "model.optimize_s": "s",
    "schedule.runs": "count",
    "schedule.run_s": "s",
    "schedule.macro_ratio": "ratio",
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "obs.export_s": "s",
    "obs.trace_bytes": "bytes",
    "obs.manifest_writes": "count",
    "obs.manifest_write_s": "s",
    "workloads.builds": "count",
    "workloads.build_s": "s",
    "serve.protocol_s": "s",
    "serve.cache.lookups": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.refreshes": "count",
    "serve.cache.refresh_s": "s",
    "serve.wait_s": "s",
    "serve.dispatch_s": "s",
    "serve.payload_bytes": "bytes",
    "serve.payload_growth_bytes_per_job": "bytes",
    "serve.worker.seed_s": "s",
    "serve.worker.exec_s": "s",
    "serve.transport_s": "s",
    "serve.hit_rtt_s": "s",
    "bench.span_overhead_pct": "%",
    "bench.unattributed_pct": "%",
}

#: Span layer -> (self-time metric, count metric) for the plain layers.
_PLAIN = {
    "experiments": ("experiments.run_request_s", None),
    "experiments.point": ("experiments.run_request_s", "experiments.points"),
    "parallel": ("parallel.map_s", "parallel.map_calls"),
    "autotune": ("autotune.tune_s", None),
    "autotune.evaluate": ("autotune.tune_s", "autotune.evaluations"),
    "model": ("model.optimize_s", "model.optimize_calls"),
    "schedule": ("schedule.run_s", "schedule.runs"),
    "sim": ("sim.run_s", None),
    "obs.export": ("obs.export_s", None),
    "obs.manifest": ("obs.manifest_write_s", "obs.manifest_writes"),
    "workloads": ("workloads.build_s", "workloads.builds"),
    "serve.protocol": ("serve.protocol_s", None),
    "serve.cache.lookup": (None, "serve.cache.lookups"),
    "serve.cache.refresh": ("serve.cache.refresh_s", "serve.cache.refreshes"),
    "serve.worker.seed": ("serve.worker.seed_s", None),
    "import.runner": ("import.runner_s", None),
    "import.scipy": ("import.scipy_s", None),
    "import.numpy": ("import.numpy_s", None),
    "import.serve": ("import.serve_s", None),
}


class Phase:
    """All records one instrumented phase left in its span directory."""

    def __init__(self, directory: str) -> None:
        #: pid -> {"role", "ppid", "spans": [...], "counters": [...]}
        self.processes: Dict[int, dict] = {}
        for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
            pid = int(os.path.basename(path)[6:-6])
            proc = self.processes.setdefault(
                pid, {"role": "?", "ppid": None, "spans": [], "counters": []}
            )
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    if "process" in rec:
                        proc["role"] = rec["process"]
                        proc["ppid"] = rec["ppid"]
                    elif "counter" in rec:
                        proc["counters"].append(rec)
                    else:
                        proc["spans"].append(rec)

    def spans(self, layer: Optional[str] = None, role: Optional[str] = None):
        for proc in self.processes.values():
            if role is not None and proc["role"] != role:
                continue
            for rec in proc["spans"]:
                if layer is None or rec["layer"] == layer:
                    yield rec

    def counters(self, name: str, window=None) -> List[Tuple[float, float]]:
        out = []
        for proc in self.processes.values():
            for rec in proc["counters"]:
                if rec["counter"] == name and _inside(rec["t"], window):
                    out.append((rec["t"], rec["value"]))
        return sorted(out)

    def top_level(self, role: str) -> List[Tuple[float, float]]:
        return [
            (rec["t0"], rec["t1"])
            for rec in self.spans(role=role)
            if rec["parent"] is None
        ]


def _inside(t: float, window) -> bool:
    return window is None or window[0] <= t <= window[1]


def layer_totals(phase: Phase, window=None) -> Dict[str, float]:
    """Summed self times and counts of the plain layers.

    With ``window`` only spans starting inside it count (import spans
    always count: they belong to the process start the phase paid).
    """
    totals = {name: 0.0 for name in PER_LAYER}
    memo_hits = 0
    lookup_hits = 0
    events = 0
    for proc in phase.processes.values():
        kept = [
            rec for rec in proc["spans"]
            if rec["layer"].startswith("import.") or _inside(rec["t0"], window)
        ]
        for layer, seconds in layer_self_times(kept).items():
            metric = _PLAIN.get(layer, (None, None))[0]
            if metric is not None:
                totals[metric] += seconds
        for rec in kept:
            count_metric = _PLAIN.get(rec["layer"], (None, None))[1]
            if count_metric is not None:
                totals[count_metric] += 1
            attrs = rec.get("attrs") or {}
            if rec["layer"] == "autotune.evaluate":
                memo_hits += attrs.get("hit", 0)
            elif rec["layer"] == "serve.cache.lookup":
                lookup_hits += attrs.get("hit", 0)
            elif rec["layer"] == "sim":
                events += attrs.get("events", 0)
            elif rec["layer"] == "parallel":
                totals["parallel.fallbacks"] += attrs.get("fallbacks", 0)
            elif rec["layer"] == "obs.export":
                totals["obs.trace_bytes"] += attrs.get("bytes", 0)
    macro_hits = sum(
        value
        for name in ("try_macro_cpu_only", "try_macro_basic", "try_macro_advanced")
        for _t, value in phase.counters(f"{name}.hit", window)
    )
    totals["sim.events"] = float(events)
    totals["sim.ns_per_event"] = (
        totals["sim.run_s"] * 1e9 / events if events else 0.0
    )
    totals["autotune.memo_hit_ratio"] = (
        memo_hits / totals["autotune.evaluations"]
        if totals["autotune.evaluations"]
        else 0.0
    )
    totals["serve.cache.hit_ratio"] = (
        lookup_hits / totals["serve.cache.lookups"]
        if totals["serve.cache.lookups"]
        else 0.0
    )
    totals["schedule.macro_ratio"] = (
        macro_hits / totals["schedule.runs"] if totals["schedule.runs"] else 0.0
    )
    return totals


def per_job_serve(phase: Phase, window) -> dict:
    """Dispatch, worker and payload figures of the served jobs."""
    executes = {
        (rec.get("attrs") or {}).get("job"): rec
        for rec in phase.spans("serve.exec")
        if _inside(rec["t0"], window)
    }
    workers = {
        (rec.get("attrs") or {}).get("job"): rec
        for rec in phase.spans("serve.worker")
    }
    dispatch, worker_exec = [], []
    for job, rec in executes.items():
        inner = workers.get(job)
        if job is None or inner is None:
            continue
        dispatch.append(
            (rec["t1"] - rec["t0"]) - (inner["t1"] - inner["t0"])
        )
        worker_exec.append(inner["t1"] - inner["t0"])
    seeds = [
        rec["t1"] - rec["t0"]
        for rec in phase.spans("serve.worker.seed")
        if _inside(rec["t0"], window)
    ]
    sends = [value for _t, value in phase.counters("pipe.send_bytes", window)]
    return {
        "jobs": executes,
        "serve.dispatch_s": median(dispatch),
        "serve.worker.exec_s": median(worker_exec),
        "serve.worker.seed_s": median(seeds),
        "serve.payload_bytes": median(sends),
        "serve.payload_growth_bytes_per_job": slope(
            list(range(len(sends))), sends
        ),
        "payload_series": sends,
    }


def handle_spans(phase: Phase, op: str, window=None) -> List[dict]:
    return sorted(
        (
            rec for rec in phase.spans("serve.handle")
            if (rec.get("attrs") or {}).get("op") == op
            and _inside(rec["t0"], window)
        ),
        key=lambda rec: rec["t0"],
    )


def attributed(span: Tuple[float, float], phase: Phase, role: str) -> float:
    """Time inside ``span`` covered by a top-level span of ``role``."""
    return (span[1] - span[0]) - self_time(span, phase.top_level(role))
