"""``repro-obs``: query, check, diff and report on recorded runs.

Subcommands operate on the results tree the experiment runner writes
(``results/<run-id>/manifest.json`` plus ``results/index.jsonl``):

- ``list`` — the run index (id, when, what, verdict); ``--json`` emits
  the raw index entries for scripting.
- ``show RUN`` — the full report for one run, on stdout; ``--json``
  emits the manifest object instead.
- ``check RUN`` — re-evaluate the conformance verdict; exit 0 for
  ``ok``, 1 for ``warn``, 2 when the run carries no conformance data.
- ``diff A B`` — semantic manifest diff between two runs: makespan /
  per-level utilization (the ``analysis`` block), metric totals,
  fault/recovery ledger and conformance deltas.  Volatile identity
  fields (run id, timestamps, argv, artifact paths, host fingerprint)
  are excluded, so two identical-seed runs diff **empty** (exit 0);
  any real difference prints one line per changed leaf and exits 1.
- ``report RUN`` — write the self-contained Markdown/HTML report.

``RUN`` is a run id under ``--results-dir``, a run directory, or a
manifest path — whichever is convenient.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.index import INDEX_NAME, load_index
from repro.obs.manifest import RunManifest
from repro.obs.report import render_markdown, write_report

#: Manifest keys that legitimately differ between two otherwise
#: identical runs: identity, wall-clock, command line, artifact paths,
#: the host fingerprint, and execution-resource knobs (``jobs``, the
#: sweep worker count older manifests record — sweep results never
#: depended on it).  Everything else is behaviour.
VOLATILE_KEYS = frozenset(
    {
        "run_id",
        "created_unix",
        "argv",
        "outputs",
        "machine",
        "python_version",
        "host_cpus",
        "jobs",
    }
)


class CliError(Exception):
    """A user-facing failure (bad reference, missing file)."""


def _resolve_manifest(results_dir: Path, ref: str) -> Path:
    """Turn a run reference into a manifest path.

    Accepts a manifest file, a run directory containing one, or a run
    id under ``results_dir``.
    """
    candidate = Path(ref)
    if candidate.is_file():
        return candidate
    if (candidate / "manifest.json").is_file():
        return candidate / "manifest.json"
    indexed = results_dir / ref / "manifest.json"
    if indexed.is_file():
        return indexed
    raise CliError(
        f"no run {ref!r}: not a manifest path, a run directory, or a "
        f"run id under {results_dir}/"
    )


def _load(results_dir: Path, ref: str) -> Tuple[RunManifest, Path]:
    path = _resolve_manifest(results_dir, ref)
    try:
        return RunManifest.load(path), path
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {path}: {exc}")


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _flatten(value, prefix: str, out: Dict[str, object]) -> None:
    """Flatten nested dicts/lists into ``a.b[2].c`` → leaf paths."""
    if isinstance(value, dict):
        if not value:
            out[prefix] = {}
            return
        for key in value:
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key),
                     out)
    elif isinstance(value, list):
        if not value:
            out[prefix] = []
            return
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value


def diff_manifests(a: RunManifest, b: RunManifest) -> List[str]:
    """Leaf-level differences between two manifests, volatile keys
    excluded.  Empty list ⇔ the runs are behaviourally identical."""
    flat_a: Dict[str, object] = {}
    flat_b: Dict[str, object] = {}
    dict_a = {
        k: v for k, v in a.to_dict().items() if k not in VOLATILE_KEYS
    }
    dict_b = {
        k: v for k, v in b.to_dict().items() if k not in VOLATILE_KEYS
    }
    _flatten(dict_a, "", flat_a)
    _flatten(dict_b, "", flat_b)
    lines: List[str] = []
    for path in sorted(set(flat_a) | set(flat_b)):
        in_a, in_b = path in flat_a, path in flat_b
        if in_a and not in_b:
            lines.append(f"- {path}: {flat_a[path]!r} (only in A)")
        elif in_b and not in_a:
            lines.append(f"+ {path}: {flat_b[path]!r} (only in B)")
        elif flat_a[path] != flat_b[path]:
            va, vb = flat_a[path], flat_b[path]
            delta = ""
            if isinstance(va, (int, float)) and isinstance(
                vb, (int, float)
            ) and not isinstance(va, bool) and not isinstance(vb, bool):
                delta = f"  (Δ {vb - va:+g})"
            lines.append(f"~ {path}: {va!r} -> {vb!r}{delta}")
    return lines


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_list(args) -> int:
    entries = load_index(args.results_dir)
    if not entries:
        # A results tree from before the index existed: fall back to
        # scanning for manifests so old runs stay reachable.
        for manifest_path in sorted(
            Path(args.results_dir).glob("*/manifest.json")
        ):
            try:
                m = RunManifest.load(manifest_path)
            except (OSError, ValueError):
                continue
            entries.append(
                {
                    "run_id": m.run_id,
                    "created_unix": m.created_unix,
                    "experiments": m.experiments,
                    "fast": m.fast,
                    "jobs": m.jobs,
                    "seed": m.seed,
                    "conformance": (m.conformance or {}).get("verdict", ""),
                    "recovery_actions": len(m.recovery),
                    "schema_version": m.schema_version,
                }
            )
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"(no runs indexed under {args.results_dir}/{INDEX_NAME})")
        return 0
    from repro.util.tables import format_table

    print(
        format_table(
            ["run id", "created", "experiments", "fast", "jobs",
             "conformance", "recovery"],
            [
                [
                    e.get("run_id", "?"),
                    e.get("created_unix", 0),
                    "+".join(e.get("experiments", [])),
                    e.get("fast", False),
                    e.get("jobs", 1),
                    e.get("conformance", "") or "-",
                    e.get("recovery_actions", 0),
                ]
                for e in entries
            ],
            floatfmt=None,
        )
    )
    return 0


def _cmd_show(args) -> int:
    manifest, _path = _load(args.results_dir, args.run)
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
        return 0
    print(render_markdown(manifest), end="")
    return 0


def _cmd_check(args) -> int:
    from repro.core.model.oracle import (
        DEFAULT_RESIDUAL_BAND,
        OPTIMISM_TOLERANCE,
        conformance_verdict,
    )

    manifest, path = _load(args.results_dir, args.run)
    block = manifest.conformance
    if not block or not block.get("checks"):
        print(
            f"{manifest.run_id}: no conformance data (re-run with "
            "--check-model or tracing enabled)",
            file=sys.stderr,
        )
        return 2
    band = args.band if args.band is not None else block.get("band")
    if band is None:
        # Foreign/older manifests may lack the band field entirely.
        band = DEFAULT_RESIDUAL_BAND
    verdict = conformance_verdict(
        block.get("mean_rel_residual", 0.0),
        block.get("max_signed_rel_residual", float("-inf")),
        band=band,
        optimism_tol=block.get("optimism_tol", OPTIMISM_TOLERANCE),
    )
    print(
        f"{manifest.run_id}: {verdict} — {block.get('checks')} checks, "
        f"mean rel residual {block.get('mean_rel_residual', 0.0):.4g} "
        f"(band {band:.4g}), max signed "
        f"{block.get('max_signed_rel_residual', 0.0):.4g} "
        f"[{path}]"
    )
    return 0 if verdict == "ok" else 1


def _cmd_diff(args) -> int:
    manifest_a, _pa = _load(args.results_dir, args.run_a)
    manifest_b, _pb = _load(args.results_dir, args.run_b)
    lines = diff_manifests(manifest_a, manifest_b)
    for line in lines:
        print(line)
    return 1 if lines else 0


def _cmd_report(args) -> int:
    manifest, path = _load(args.results_dir, args.run)
    out = args.out
    if out is None:
        suffix = "html" if args.format == "html" else "md"
        out = path.parent / f"report.{suffix}"
    written = write_report(manifest, out, fmt=args.format)
    print(f"report: {written}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Query, check, diff and report on recorded "
        "experiment runs.",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path("results"),
        metavar="DIR",
        help="results tree holding run directories and index.jsonl "
        "(default: results/)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list indexed runs")
    p_list.add_argument(
        "--json",
        action="store_true",
        help="emit the index entries as JSON instead of a table",
    )
    p_list.set_defaults(fn=_cmd_list)

    p_show = sub.add_parser("show", help="print one run's full report")
    p_show.add_argument("run", help="run id, run directory or manifest")
    p_show.add_argument(
        "--json",
        action="store_true",
        help="emit the full manifest as JSON instead of the report",
    )
    p_show.set_defaults(fn=_cmd_show)

    p_check = sub.add_parser(
        "check",
        help="re-evaluate the model-conformance verdict "
        "(exit 0 ok / 1 warn / 2 no data)",
    )
    p_check.add_argument("run", help="run id, run directory or manifest")
    p_check.add_argument(
        "--band",
        type=float,
        default=None,
        metavar="REL",
        help="override the committed mean-relative-residual band",
    )
    p_check.set_defaults(fn=_cmd_check)

    p_diff = sub.add_parser(
        "diff",
        help="semantic diff of two runs (exit 0 when identical)",
    )
    p_diff.add_argument("run_a", help="first run (A)")
    p_diff.add_argument("run_b", help="second run (B)")
    p_diff.set_defaults(fn=_cmd_diff)

    p_report = sub.add_parser(
        "report", help="write the run's self-contained report"
    )
    p_report.add_argument("run", help="run id, run directory or manifest")
    p_report.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="report path (default: <run dir>/report.<fmt>)",
    )
    p_report.add_argument(
        "--format",
        choices=("md", "html"),
        default="md",
        help="report format (default: md)",
    )
    p_report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
