"""The cli-cold workload: one cold ``repro-experiments`` process at a time.

A pass runs every id from ``repro-experiments --list`` once as
``<id> --fast --json`` (default flags otherwise, so ``--jobs auto``),
then each of :data:`ubench.gen.TRACED_IDS` once more with
``--trace-out``/``--metrics-out`` into a fresh results directory.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

from ubench import gen
from ubench.layers import PER_LAYER, Phase, attributed, layer_totals
from ubench.procs import TreeRSS, kill_tree, program_env
from ubench.stats import median

#: What the ``repro-experiments`` console script runs.
ENTRY = "import sys; from repro.experiments.runner import main; sys.exit(main())"
BOOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "boot.py")
REFERENCE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reference"
)
TIMEOUT_S = 150.0
SETUP_REPEATS = 3
#: Held-out quantities the paper reports and the model does not fit:
#: Table 2's g and 1/gamma per platform (read from the table's own
#: paper columns) and the best Fig. 7 speedup (about 4.5x, §6).
PAPER_FIG7_BEST = 4.5


def _command(args: List[str], span_dir: Optional[str]) -> List[str]:
    if span_dir is None:
        return [sys.executable, "-c", ENTRY, *args]
    return [sys.executable, BOOT, "cli", span_dir, "repro-experiments", *args]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def invoke(checkout: str, args: List[str], cwd: str, span_dir=None) -> dict:
    """One cold invocation: wall time, tree peak RSS, exit code, stdout."""
    cpu_before = _children_cpu()
    start = time.perf_counter()
    proc = subprocess.Popen(
        _command(args, span_dir),
        cwd=cwd,
        env=program_env(checkout),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        with TreeRSS(proc.pid) as rss:
            out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        return {"ok": False, "error": "timeout", "wall_s": TIMEOUT_S,
                "t0": start, "t1": time.perf_counter(), "rss": rss.peak,
                "stdout": ""}
    finally:
        if proc.poll() is None:
            kill_tree(proc)
    end = time.perf_counter()
    result = {
        "ok": proc.returncode == 0,
        "wall_s": end - start,
        "t0": start,
        "t1": end,
        "rss": rss.peak,
        # CPU of the whole tree: pool workers are reaped by the CLI.
        "cpu_s": _children_cpu() - cpu_before,
        "stdout": out.decode("utf-8", "replace"),
    }
    if proc.returncode != 0:
        result["error"] = (
            f"exit {proc.returncode}: "
            + err.decode("utf-8", "replace").strip()[-300:]
        )
    return result


def json_lines(stdout: str) -> List[dict]:
    """The ``--json`` result objects of one invocation's stdout."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def load_reference(exp_id: str) -> Optional[List[dict]]:
    path = os.path.join(REFERENCE_DIR, f"{exp_id}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json_lines(handle.read())


def check_untraced(exp_id: str, run: dict, reference) -> Optional[str]:
    """Why an untraced invocation's output is wrong, or ``None``."""
    if not run["ok"]:
        return run.get("error", "failed")
    if reference is None:
        return f"no reference output for {exp_id}"
    try:
        produced = json_lines(run["stdout"])
    except ValueError as exc:
        return f"unparsable --json output: {exc}"
    if produced != reference:
        return f"{exp_id}: --json output differs from the reference"
    return None


def check_traced(exp_id: str, run: dict, twin, results_dir: str) -> Optional[str]:
    """Why a traced invocation is wrong: its tables must equal its
    untraced twin's, and its trace and metrics files must parse."""
    if not run["ok"]:
        return run.get("error", "failed")
    try:
        produced = json_lines(run["stdout"])
    except ValueError as exc:
        return f"unparsable --json output: {exc}"
    if twin is None or produced != twin:
        return f"{exp_id}: traced tables differ from the untraced twin"
    for name in ("trace.json", "metrics.json"):
        path = os.path.join(results_dir, name)
        try:
            with open(path, encoding="utf-8") as handle:
                json.load(handle)
        except (OSError, ValueError) as exc:
            return f"{exp_id}: {name} unreadable: {exc}"
    return None


def paper_error_pct(outputs: Dict[str, List[dict]]) -> float:
    """Mean relative error (%) against the paper's held-out values."""
    errors = []
    for row in outputs["table2"][0]["rows"]:
        _name, _p, g_est, gi_est, _p_paper, g_paper, gi_paper = row
        errors.append(abs(g_est - g_paper) / g_paper)
        errors.append(abs(gi_est - gi_paper) / gi_paper)
    best = max(row[2] for row in outputs["fig7"][0]["rows"])
    errors.append(abs(best - PAPER_FIG7_BEST) / PAPER_FIG7_BEST)
    return 100.0 * sum(errors) / len(errors)


def list_ids(checkout: str, cwd: str) -> List[str]:
    run = invoke(checkout, ["--list"], cwd)
    if not run["ok"]:
        raise RuntimeError(f"repro-experiments --list failed: {run.get('error')}")
    return [line.strip() for line in run["stdout"].splitlines() if line.strip()]


def setup(checkout: str, cwd: str) -> List[float]:
    """Cold imports of the runner (the first one also writes bytecode)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.runner"],
            cwd=cwd, env=program_env(checkout), check=True,
            stdout=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return times


def run_pass(checkout: str, work: str, order: dict, span_dir=None) -> dict:
    """One pass over the untraced set and the traced twins."""
    untraced, traced, failures, outputs = [], [], [], {}
    for exp_id in order["untraced"]:
        run = invoke(checkout, [exp_id, "--fast", "--json"], work, span_dir)
        problem = check_untraced(exp_id, run, load_reference(exp_id))
        if problem is None:
            outputs[exp_id] = json_lines(run["stdout"])
        else:
            failures.append(problem)
        untraced.append(dict(run, id=exp_id, stdout=None))
    for exp_id in order["traced"]:
        results_dir = os.path.join(work, f"results-{exp_id}-{len(traced)}")
        os.makedirs(results_dir)
        args = [
            exp_id, "--fast", "--json",
            "--trace-out", os.path.join(results_dir, "trace.json"),
            "--metrics-out", os.path.join(results_dir, "metrics.json"),
            "--results-dir", results_dir,
        ]
        run = invoke(checkout, args, work, span_dir)
        problem = check_traced(exp_id, run, outputs.get(exp_id), results_dir)
        if problem is not None:
            failures.append(problem)
        traced.append(dict(run, id=exp_id, stdout=None))
        shutil.rmtree(results_dir, ignore_errors=True)
    return {"untraced": untraced, "traced": traced, "failures": failures,
            "outputs": outputs}


def _pass_figures(passes: List[dict]) -> dict:
    untraced = [r for p in passes for r in p["untraced"]]
    traced = [r for p in passes for r in p["traced"]]
    every = untraced + traced
    figures = {
        "cli_wall_p50_s": median([r["wall_s"] for r in untraced]),
        "cli_total_s": median(
            [sum(r["wall_s"] for r in p["untraced"]) for p in passes]
        ),
        "cli_traced_total_s": median(
            [sum(r["wall_s"] for r in p["traced"]) for p in passes]
        ),
        "cli_peak_rss_mb": max(r["rss"] for r in every) / 2**20,
        "invocations_per_s": len(every) / sum(r["wall_s"] for r in every),
    }
    outputs = passes[0]["outputs"]
    if "table2" in outputs and "fig7" in outputs:
        figures["paper_err_pct"] = paper_error_pct(outputs)
    return figures


def run(checkout: str, work: str, seed: int, seconds: float, trace: bool) -> dict:
    ids = list_ids(checkout, work)
    order = gen.cli_order(seed, ids)
    setup_times = setup(checkout, work)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or (not trace and time.perf_counter() < deadline):
        passes.append(run_pass(checkout, work, order))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["untraced"]) + len(p["traced"]) for p in passes)
    figures = _pass_figures(passes)
    figures["setup_s"] = median(setup_times)
    figures["error_rate"] = len(failures) / attempted
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "figures": figures,
        "metrics": {
            "setup_s": (figures["setup_s"], "s"),
            "op_p50_s": (figures["cli_wall_p50_s"], "s"),
            "ops_per_s": (figures["invocations_per_s"], "1/s"),
            "peak_rss_mb": (figures["cli_peak_rss_mb"], "MB"),
        },
        "inputs": {"ids": ids, "order": order, "setup_runs": setup_times},
        "invocations": [
            {"id": r["id"], "traced": kind == "traced", "wall_s": r["wall_s"],
             "cpu_s": r.get("cpu_s"), "rss_mb": r["rss"] / 2**20}
            for p in passes for kind in ("untraced", "traced") for r in p[kind]
        ],
    }
    if trace:
        result.update(_span_pass(checkout, work, order, passes[0]))
    return result


def _span_pass(checkout: str, work: str, order: dict, plain: dict) -> dict:
    """Re-run the pass under the span recorder and fold the layers."""
    span_dir = os.path.join(work, "spans")
    spanned = run_pass(checkout, work, order, span_dir)
    phase = Phase(span_dir)
    totals = layer_totals(phase)
    runs = spanned["untraced"] + spanned["traced"]
    wall = sum(r["wall_s"] for r in runs)
    covered = sum(attributed((r["t0"], r["t1"]), phase, "cli") for r in runs)
    plain_wall = sum(r["wall_s"] for r in plain["untraced"] + plain["traced"])
    totals["bench.span_overhead_pct"] = 100.0 * (wall / plain_wall - 1.0)
    totals["bench.unattributed_pct"] = 100.0 * (wall - covered) / wall
    layer_metrics = {name: (totals.get(name, 0.0), unit)
                     for name, unit in PER_LAYER.items()}
    return {
        "layer_metrics": layer_metrics,
        "span_failures": spanned["failures"],
        "span_attempted": len(runs),
    }
