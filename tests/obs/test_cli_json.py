"""``repro-obs list --json`` / ``show --json``: machine-readable
output for scripts and the service smoke tests."""

import json
from pathlib import Path

from repro.experiments.runner import RunSpec, run_request
from repro.obs.cli import VOLATILE_KEYS, main

SWEEP = {
    "platform": "HPU1",
    "n": [4096],
    "alphas": [0.5],
    "levels": None,
    "adaptive": False,
    "include_cpu_fallback": False,
    "noise_amplitude": None,
    "seed": None,
}


def make_run(results_dir, run_id):
    return run_request(
        RunSpec(
            experiments=(),
            fast=True,
            manifest=True,
            results_dir=Path(results_dir),
            run_id=run_id,
            sweep=dict(SWEEP),
        )
    )


class TestListJson:
    def test_empty_tree_prints_empty_array(self, tmp_path, capsys):
        assert main(["--results-dir", str(tmp_path), "list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_entries_round_trip(self, tmp_path, capsys):
        outcome = make_run(tmp_path, "r1")
        make_run(tmp_path, "r2")
        assert main(["--results-dir", str(tmp_path), "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["run_id"] for e in entries] == ["r1", "r2"]
        assert entries[0]["cache_key"] == outcome.cache_key
        assert entries[0]["schema_version"] >= 4


class TestShowJson:
    def test_manifest_round_trips(self, tmp_path, capsys):
        outcome = make_run(tmp_path, "r1")
        assert main(
            ["--results-dir", str(tmp_path), "show", "r1", "--json"]
        ) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["run_id"] == "r1"
        assert manifest["cache_key"] == outcome.cache_key
        assert manifest["request"]["platform"] == "HPU1"

    def test_plain_show_still_renders_markdown(self, tmp_path, capsys):
        make_run(tmp_path, "r1")
        assert main(["--results-dir", str(tmp_path), "show", "r1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#")  # markdown report, not JSON


class TestVolatileKeys:
    def test_jobs_is_volatile(self):
        """Older manifests record the sweep worker count, an
        execution-resource knob that never changed results, so a run
        differing from a new one only in ``jobs`` must diff empty."""
        assert "jobs" in VOLATILE_KEYS

    def test_diff_ignores_jobs(self, tmp_path, capsys):
        make_run(tmp_path, "j1")
        make_run(tmp_path, "j2")
        path = tmp_path / "j2" / "manifest.json"
        data = json.loads(path.read_text())
        assert "jobs" not in data
        data["jobs"] = 2  # the worker count older manifests recorded
        path.write_text(json.dumps(data))
        assert main(["--results-dir", str(tmp_path), "diff", "j1", "j2"]) == 0
        assert capsys.readouterr().out == ""
