"""Run-manifest round-trip and runner CLI integration."""

import json

import pytest

from repro.hpu import PLATFORMS
from repro.obs.manifest import MANIFEST_FORMAT, RunManifest, platform_manifest


def make_manifest() -> RunManifest:
    return RunManifest(
        run_id="test-run",
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
        results={"fig8": {"title": "Speedup vs n", "notes": ["ok"]}},
        metrics_summary={"cpu.ops": 100.0},
        outputs={"trace": "t.json"},
        fault_plan={"name": "no-faults", "seed": 20140131, "faults": []},
        recovery=[{"kind": "retry", "site": "kernel", "run": "HPU1:ms"}],
    )


class TestPlatformManifest:
    def test_carries_calibrated_parameters(self):
        sheet = platform_manifest(PLATFORMS["HPU1"])
        assert sheet["name"] == "HPU1"
        assert sheet["cpu"]["p"] == PLATFORMS["HPU1"].cpu_spec.p
        assert sheet["gpu"]["g"] == PLATFORMS["HPU1"].gpu_spec.g
        assert sheet["gpu"]["gamma"] == PLATFORMS["HPU1"].gpu_spec.gamma
        # The paper's transfer model: T(x) = λ + δx.
        assert "lambda" in sheet["gpu"] and "delta" in sheet["gpu"]

    def test_json_serializable(self):
        for hpu in PLATFORMS.values():
            json.dumps(platform_manifest(hpu))


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = manifest.write(tmp_path / "results" / "r" / "manifest.json")
        back = RunManifest.load(path)
        assert back.to_dict() == manifest.to_dict()

    def test_format_marker(self):
        assert make_manifest().to_dict()["format"] == MANIFEST_FORMAT

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_manifest.json"
        path.write_text(json.dumps({"format": "something/else"}))
        with pytest.raises(ValueError):
            RunManifest.load(path)

    def test_resilience_fields_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = manifest.write(tmp_path / "manifest.json")
        back = RunManifest.load(path)
        assert back.fault_plan["name"] == "no-faults"
        assert back.recovery[0]["kind"] == "retry"

    def test_resilience_fields_default_empty(self):
        """Pre-resilience manifests (no fault_plan/recovery keys) load."""
        data = make_manifest().to_dict()
        del data["fault_plan"], data["recovery"]
        back = RunManifest.from_dict(data)
        assert back.fault_plan == {} and back.recovery == []


class TestSchemaVersion:
    def test_new_manifests_carry_current_version(self, tmp_path):
        from repro.obs.manifest import SCHEMA_VERSION

        manifest = make_manifest()
        assert manifest.schema_version == SCHEMA_VERSION
        path = manifest.write(tmp_path / "manifest.json", index=False)
        back = RunManifest.load(path)
        assert back.schema_version == SCHEMA_VERSION

    def test_v1_manifest_defaults_to_version_1(self):
        """PR-2 era manifests predate the field."""
        data = make_manifest().to_dict()
        for key in ("schema_version", "conformance", "analysis"):
            del data[key]
        back = RunManifest.from_dict(data)
        assert back.schema_version == 1
        assert back.conformance == {} and back.analysis == {}

    def test_forward_compat_unknown_keys_tolerated(self, tmp_path):
        """A manifest written by a *future* schema still loads: higher
        version number kept, unknown keys ignored, known keys intact."""
        data = make_manifest().to_dict()
        data["schema_version"] = 99
        data["some_future_block"] = {"shape": ["of", "things"]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data))
        back = RunManifest.load(path)
        assert back.schema_version == 99
        assert back.run_id == "test-run"
        assert not hasattr(back, "some_future_block")

    def test_conformance_and_analysis_round_trip(self, tmp_path):
        manifest = make_manifest()
        manifest.conformance = {"verdict": "ok", "checks": 3}
        manifest.analysis = {"horizon": 10.0, "utilization": {"gpu": 0.9}}
        path = manifest.write(tmp_path / "manifest.json", index=False)
        back = RunManifest.load(path)
        assert back.conformance == manifest.conformance
        assert back.analysis == manifest.analysis

    def test_write_is_byte_stable(self, tmp_path):
        """Key-sorted serialization: identical manifests, identical
        bytes — the property repro-obs diff and CI cmp rely on."""
        a = make_manifest().write(tmp_path / "a.json", index=False)
        b = make_manifest().write(tmp_path / "b.json", index=False)
        assert a.read_bytes() == b.read_bytes()


class TestLegacyJobsField:
    """Manifests from before serial-only sweeps record a ``jobs`` width;
    new ones omit it, and loading either stays possible."""

    def test_older_manifest_jobs_loads(self):
        data = make_manifest().to_dict()
        assert "jobs" not in data
        data["jobs"] = 2
        data["host_cpus"] = 8
        back = RunManifest.from_dict(data)
        assert back.jobs == 2
        assert back.host_cpus == 8
        assert "jobs" not in back.to_dict()

    def test_legacy_manifests_default_serial(self):
        data = make_manifest().to_dict()
        del data["host_cpus"]
        back = RunManifest.from_dict(data)
        assert back.jobs == 1
        assert back.host_cpus == 1


class TestRunnerIntegration:
    def test_trace_metrics_manifest_flow(self, tmp_path, capsys):
        # table1 is the cheapest experiment that still builds platforms.
        from repro.experiments import runner

        rc = runner.main(
            [
                "table1",
                "--fast",
                "--trace-out",
                str(tmp_path / "t.json"),
                "--metrics-out",
                str(tmp_path / "m.json"),
                "--results-dir",
                str(tmp_path / "results"),
                "--run-id",
                "itest",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifest:" in out

        trace = json.loads((tmp_path / "t.json").read_text())
        assert "traceEvents" in trace
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["format"] == "repro.obs.metrics/v1"

        manifest = RunManifest.load(
            tmp_path / "results" / "itest" / "manifest.json"
        )
        assert manifest.run_id == "itest"
        assert manifest.experiments == ["table1"]
        assert manifest.fast is True
        assert set(manifest.platforms) == set(PLATFORMS)
        assert "table1" in manifest.results
        assert manifest.outputs["trace"] == str(tmp_path / "t.json")

    def test_tracer_deactivated_after_run(self, tmp_path):
        from repro.experiments import runner
        from repro.obs.tracer import active

        runner.main(
            [
                "table1",
                "--metrics-out",
                str(tmp_path / "m.json"),
                "--results-dir",
                str(tmp_path / "results"),
                "--run-id",
                "x",
            ]
        )
        assert active() is None

    def test_manifest_flag_without_tracing(self, tmp_path, capsys):
        from repro.experiments import runner

        rc = runner.main(
            [
                "table1",
                "--manifest",
                "--results-dir",
                str(tmp_path / "results"),
                "--run-id",
                "plain",
            ]
        )
        assert rc == 0
        manifest = RunManifest.load(
            tmp_path / "results" / "plain" / "manifest.json"
        )
        assert manifest.metrics_summary == {}
        assert manifest.outputs == {}
