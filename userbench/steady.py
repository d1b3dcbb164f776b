"""Steadiness check: run the workloads repeatedly and compare spreads
with the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 userbench/steady.py --runs 10 [--workload cli-cold ...] [--sets 2]

Each run uses another seed (``--first-seed``, then +1, ...).  For each
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) against the metric's bound, and
flags a spread above a third of the bound.  ``setup_s`` is exempt from
the spread rule.  With ``--sets 2`` the whole series runs twice and the
second median must not be worse than the first by more than the bound.
A run that reports ``correct: false`` fails the check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from ubench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, command: list) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def series(spec: dict, workload: str, runs: int, first_seed: int) -> dict:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    incorrect = 0
    for i in range(runs):
        result = run_once(workload, first_seed + i, spec["run_seconds"],
                          spec["command"])
        incorrect += not result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"  {workload} seed {first_seed + i}: " + ", ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    return {"values": values, "incorrect": incorrect}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="userbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        sets = [series(spec, workload, args.runs, args.first_seed + 1000 * s)
                for s in range(args.sets)]
        for name, metric in bounds.items():
            first = quartile_spread(sets[0]["values"][name])
            bound = metric["bound"]
            line = (f"{workload:15s} {name:14s} median {first['median']:.5g} "
                    f"q1 {first['q1']:.5g} q3 {first['q3']:.5g} "
                    f"spread {first['spread']:.3f} (bound {bound}, "
                    f"target < {bound / 3:.3f})")
            steady = name == "setup_s" or first["spread"] < bound / 3
            if len(sets) == 2:
                second = quartile_spread(sets[1]["values"][name])
                ratio = second["median"] / first["median"]
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                line += f"; second median {second['median']:.5g} drift {worse:+.3f}"
                steady = steady and worse <= bound
                if name != "setup_s":
                    steady = steady and second["spread"] <= bound
            ok = ok and steady
            print(line + ("" if steady else "  <-- NOT STEADY"))
        incorrect = sum(s["incorrect"] for s in sets)
        if incorrect:
            ok = False
            print(f"{workload}: {incorrect} run(s) reported correct=false")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
