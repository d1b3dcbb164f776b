"""Run index (results/index.jsonl) and the repro-obs CLI."""

import json

import pytest

from repro.hpu import PLATFORMS
from repro.obs.cli import diff_manifests, main
from repro.obs.index import (
    INDEX_NAME,
    dumps_line,
    index_line,
    load_index,
)
from repro.obs.manifest import RunManifest, platform_manifest


def make_manifest(run_id="run-a", **overrides) -> RunManifest:
    fields = dict(
        run_id=run_id,
        created_unix=1754400000,
        argv=["fig8", "--fast"],
        experiments=["fig8"],
        fast=True,
        platforms={
            name: platform_manifest(hpu) for name, hpu in PLATFORMS.items()
        },
        seed=20140131,
        noise_amplitude=0.015,
        repro_version="1.0.0",
        results={"fig8": {"title": "Speedup vs n", "notes": ["HPU1 ok"]}},
        conformance={
            "band": 0.6,
            "checks": 10,
            "max_abs_residual": 100.0,
            "max_rel_residual": 0.9,
            "max_signed_rel_residual": 0.01,
            "mean_rel_residual": 0.4,
            "optimism_tol": 0.05,
            "verdict": "ok",
            "worst": {"label": "HPU1:mergesort"},
        },
        analysis={
            "horizon": 1000.0,
            "label": "HPU1:mergesort",
            "levels": {"cpu:0": 0.1, "gpu:11": 0.5},
            "utilization": {"cpu": 0.4, "gpu": 0.9},
        },
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestIndex:
    def test_write_appends_index_line(self, tmp_path):
        results = tmp_path / "results"
        manifest = make_manifest()
        manifest.write(results / "run-a" / "manifest.json")
        entries = load_index(results)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["run_id"] == "run-a"
        assert entry["conformance"] == "ok"
        assert entry["manifest"] == "run-a/manifest.json"
        assert entry["schema_version"] == manifest.schema_version

    def test_index_lines_byte_stable(self, tmp_path):
        results = tmp_path / "results"
        path = results / "run-a" / "manifest.json"
        make_manifest().write(path)
        make_manifest().write(path)
        lines = (results / INDEX_NAME).read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        # compact, key-sorted JSON
        parsed = json.loads(lines[0])
        assert lines[0] == dumps_line(parsed)
        assert list(parsed) == sorted(parsed)

    def test_last_write_wins_per_run_id(self, tmp_path):
        results = tmp_path / "results"
        make_manifest(seed=1).write(results / "run-a" / "manifest.json")
        make_manifest(seed=2).write(results / "run-a" / "manifest.json")
        entries = load_index(results)
        assert len(entries) == 1 and entries[0]["seed"] == 2

    def test_write_without_index(self, tmp_path):
        results = tmp_path / "results"
        make_manifest().write(
            results / "run-a" / "manifest.json", index=False
        )
        assert load_index(results) == []

    def test_missing_index_is_empty(self, tmp_path):
        assert load_index(tmp_path) == []

    def test_blank_lines_skipped(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        line = dumps_line(
            index_line(
                make_manifest(), results / "run-a" / "manifest.json"
            )
        )
        (results / INDEX_NAME).write_text(f"\n{line}\n\n")
        assert len(load_index(results)) == 1

    def test_corrupt_lines_skipped(self, tmp_path):
        # A torn concurrent append or a hand-edit must not brick the
        # whole results tree — bad lines are dropped, good ones survive.
        results = tmp_path / "results"
        results.mkdir()
        line = dumps_line(
            index_line(
                make_manifest(), results / "run-a" / "manifest.json"
            )
        )
        (results / INDEX_NAME).write_text(
            f'{line[: len(line) // 2]}\n{line}\n"not-a-dict"\n{{bad\n'
        )
        entries = load_index(results)
        assert [e["run_id"] for e in entries] == ["run-a"]


class TestDiff:
    def test_identical_manifests_diff_empty(self):
        assert diff_manifests(make_manifest(), make_manifest()) == []

    def test_volatile_fields_ignored(self):
        a = make_manifest(run_id="a", created_unix=1, argv=["x"])
        b = make_manifest(run_id="b", created_unix=2, argv=["y"])
        assert diff_manifests(a, b) == []

    def test_behavioural_change_reported(self):
        a = make_manifest()
        b = make_manifest(seed=7)
        lines = diff_manifests(a, b)
        assert len(lines) == 1 and "seed" in lines[0]

    def test_nested_analysis_delta(self):
        a = make_manifest()
        b = make_manifest(
            analysis={**a.analysis, "levels": {"cpu:0": 0.2, "gpu:11": 0.5}}
        )
        lines = diff_manifests(a, b)
        assert any("analysis.levels.cpu:0" in line for line in lines)

    def test_conformance_and_recovery_deltas(self):
        a = make_manifest()
        b = make_manifest(
            conformance={**a.conformance, "verdict": "warn"},
            recovery=[{"kind": "retry"}],
        )
        lines = diff_manifests(a, b)
        joined = "\n".join(lines)
        assert "conformance.verdict" in joined
        assert "recovery[0]" in joined


class TestCli:
    def _write(self, tmp_path, run_id="run-a", **overrides):
        results = tmp_path / "results"
        manifest = make_manifest(run_id=run_id, **overrides)
        manifest.write(results / run_id / "manifest.json")
        return results

    def test_list(self, tmp_path, capsys):
        results = self._write(tmp_path)
        assert main(["--results-dir", str(results), "list"]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "ok" in out

    def test_list_empty(self, tmp_path, capsys):
        assert main(["--results-dir", str(tmp_path), "list"]) == 0
        assert "no runs indexed" in capsys.readouterr().out

    def test_show(self, tmp_path, capsys):
        results = self._write(tmp_path)
        assert main(["--results-dir", str(results), "show", "run-a"]) == 0
        out = capsys.readouterr().out
        assert "Run report: run-a" in out
        assert "Model conformance" in out

    def test_check_ok(self, tmp_path, capsys):
        results = self._write(tmp_path)
        assert main(["--results-dir", str(results), "check", "run-a"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_warn_with_tight_band(self, tmp_path, capsys):
        results = self._write(tmp_path)
        code = main(
            ["--results-dir", str(results), "check", "run-a",
             "--band", "0.1"]
        )
        assert code == 1
        assert "warn" in capsys.readouterr().out

    @pytest.mark.parametrize("band", ["inf", "nan", "0", "-1"])
    def test_check_rejects_unusable_band(self, tmp_path, capsys, band):
        results = self._write(tmp_path)
        code = main(
            ["--results-dir", str(results), "check", "run-a",
             "--band", band]
        )
        assert code == 2
        assert "--band" in capsys.readouterr().err

    def test_check_foreign_block_without_band(self, tmp_path, capsys):
        # A manifest from an older/foreign writer may carry checks but
        # no band; the default band applies instead of a TypeError.
        results = self._write(
            tmp_path,
            conformance={
                "checks": 3,
                "mean_rel_residual": 0.4,
                "verdict": "ok",
            },
        )
        assert main(["--results-dir", str(results), "check", "run-a"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "band 0.6" in out

    def test_check_no_data(self, tmp_path, capsys):
        results = self._write(tmp_path, conformance={})
        code = main(["--results-dir", str(results), "check", "run-a"])
        assert code == 2
        assert "no conformance data" in capsys.readouterr().err

    def test_diff_identical_runs_empty(self, tmp_path, capsys):
        results = self._write(tmp_path, run_id="a")
        make_manifest(run_id="b").write(results / "b" / "manifest.json")
        assert main(["--results-dir", str(results), "diff", "a", "b"]) == 0
        assert capsys.readouterr().out == ""

    def test_diff_reports_and_exits_nonzero(self, tmp_path, capsys):
        results = self._write(tmp_path, run_id="a")
        make_manifest(run_id="b", seed=99).write(
            results / "b" / "manifest.json"
        )
        assert main(["--results-dir", str(results), "diff", "a", "b"]) == 1
        assert "seed" in capsys.readouterr().out

    def test_report_markdown_and_html(self, tmp_path, capsys):
        results = self._write(tmp_path)
        assert main(
            ["--results-dir", str(results), "report", "run-a"]
        ) == 0
        report = results / "run-a" / "report.md"
        assert report.is_file()
        text = report.read_text()
        assert "Model conformance" in text and "Trace analysis" in text
        assert main(
            ["--results-dir", str(results), "report", "run-a",
             "--format", "html"]
        ) == 0
        html = (results / "run-a" / "report.html").read_text()
        assert html.startswith("<!doctype html>")

    def test_run_reference_forms(self, tmp_path):
        results = self._write(tmp_path)
        run_dir = results / "run-a"
        for ref in (
            "run-a", str(run_dir), str(run_dir / "manifest.json")
        ):
            assert main(
                ["--results-dir", str(results), "show", ref]
            ) == 0

    def test_unknown_run(self, tmp_path, capsys):
        code = main(["--results-dir", str(tmp_path), "show", "nope"])
        assert code == 2
        assert "no run" in capsys.readouterr().err

    def test_list_falls_back_to_scanning(self, tmp_path, capsys):
        results = self._write(tmp_path)
        (results / INDEX_NAME).unlink()
        assert main(["--results-dir", str(results), "list"]) == 0
        assert "run-a" in capsys.readouterr().out


class TestEndToEnd:
    def test_runner_to_cli_round_trip(self, tmp_path, capsys):
        """table1 (cheapest experiment) through the runner with
        --check-model, then every CLI verb over the result."""
        from repro.experiments.runner import main as runner_main

        results = tmp_path / "results"
        for run_id in ("r1", "r2"):
            code = runner_main(
                ["table1", "--check-model", "--results-dir",
                 str(results), "--run-id", run_id]
            )
            assert code == 0
        capsys.readouterr()
        assert main(["--results-dir", str(results), "diff", "r1", "r2"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["--results-dir", str(results), "list"]) == 0
        assert "r1" in capsys.readouterr().out
