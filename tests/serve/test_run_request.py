"""The argv-free runner core: RunSpec -> run_request -> RunOutcome,
run-id uniquification, and the serve/direct equivalence guarantee."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.experiments.request import validate_request
from repro.experiments.runner import (
    RunSpec,
    run_request,
    unique_run_id,
)
from repro.obs.cli import diff_manifests
from repro.obs.manifest import RunManifest

TINY_SWEEP = {
    "kind": "sweep",
    "platform": "HPU1",
    "n": [4096],
    "alphas": [0.5],
    "levels": None,
    "adaptive": False,
    "include_cpu_fallback": False,
    "noise_amplitude": None,
    "seed": None,
}


def tiny_spec(results_dir, request=TINY_SWEEP, **overrides):
    spec = dict(
        request=validate_request(request),
        manifest=True,
        results_dir=Path(results_dir),
    )
    spec.update(overrides)
    return RunSpec(**spec)


class TestUniqueRunId:
    def test_free_base_is_returned_unchanged(self, tmp_path):
        assert unique_run_id(tmp_path, "20260101-000000-fig8") == (
            "20260101-000000-fig8"
        )

    def test_collision_appends_suffix(self, tmp_path):
        """Regression: two auto-id runs in the same wall-clock second
        used to share (and overwrite) one results directory."""
        base = "20260101-000000-fig8"
        (tmp_path / base).mkdir()
        assert unique_run_id(tmp_path, base) == base + "-2"
        (tmp_path / (base + "-2")).mkdir()
        assert unique_run_id(tmp_path, base) == base + "-3"

    def test_same_second_runs_get_distinct_directories(self, tmp_path):
        """End-to-end: two auto-id runs land in different run dirs even
        when started within one strftime second."""
        first = run_request(tiny_spec(tmp_path))
        second = run_request(tiny_spec(tmp_path))
        assert first.run_id != second.run_id
        assert Path(first.manifest_path) != Path(second.manifest_path)
        assert Path(first.manifest_path).is_file()
        assert Path(second.manifest_path).is_file()


class TestRunRequest:
    def test_outcome_carries_cache_key_and_canonical_request(self, tmp_path):
        outcome = run_request(tiny_spec(tmp_path, run_id="r1"))
        assert outcome.run_id == "r1"
        assert len(outcome.cache_key) == 32
        assert outcome.request["platform"] == "HPU1"
        manifest = json.loads(Path(outcome.manifest_path).read_text())
        assert manifest["cache_key"] == outcome.cache_key
        assert manifest["request"] == outcome.request
        index = (tmp_path / "index.jsonl").read_text().strip()
        assert json.loads(index)["cache_key"] == outcome.cache_key

    def test_results_are_deterministic(self, tmp_path):
        a = run_request(tiny_spec(tmp_path, run_id="a"))
        b = run_request(tiny_spec(tmp_path, run_id="b"))
        assert a.results["sweep"].rows == b.results["sweep"].rows

    def test_on_result_callback_sees_each_experiment(self, tmp_path):
        seen = []
        run_request(
            tiny_spec(tmp_path, run_id="cb"),
            on_result=lambda key, result: seen.append(key),
        )
        assert seen == ["sweep"]

    def test_invalid_spec_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            run_request(
                RunSpec(
                    request=validate_request(
                        {"kind": "figure", "experiments": ["no-such-experiment"]}
                    ),
                    results_dir=Path(tmp_path),
                )
            )

    def test_resilient_runs_are_uncacheable(self, tmp_path):
        from repro.resilience import ResilienceConfig

        outcome = run_request(
            tiny_spec(tmp_path, run_id="res", resilience=ResilienceConfig())
        )
        assert outcome.cache_key == ""


class TestServeDirectEquivalence:
    def test_daemon_run_matches_direct_run(self, tmp_path):
        """The acceptance bar: a run submitted through the service and
        the same run from the direct runner differ only in volatile
        identity fields — ``repro-obs diff`` is empty — and share one
        cache key, so a direct run warms the service cache."""
        from repro.serve.daemon import JobDaemon

        direct = run_request(tiny_spec(tmp_path / "direct", run_id="d1"))

        async def body():
            daemon = JobDaemon(
                results_dir=tmp_path / "served", executor="thread"
            )
            await daemon.start()
            try:
                job = await daemon.submit(
                    {
                        "kind": "sweep",
                        "platform": "HPU1",
                        "n": [4096],
                        "alphas": [0.5],
                        "adaptive": False,
                        "include_cpu_fallback": False,
                    }
                )
                return await daemon.wait(job.job_id, timeout=60)
            finally:
                await daemon.shutdown()

        job = asyncio.run(body())
        assert job.state == "done"
        assert job.cache_key == direct.cache_key
        served_manifest = RunManifest.load(job.manifest_path)
        direct_manifest = RunManifest.load(direct.manifest_path)
        assert diff_manifests(served_manifest, direct_manifest) == []

    def test_direct_run_warms_the_service_cache(self, tmp_path):
        from repro.serve.daemon import JobDaemon

        direct = run_request(tiny_spec(tmp_path, run_id="warm"))

        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            await daemon.start()
            try:
                return await daemon.submit(
                    {
                        "kind": "sweep",
                        "platform": "HPU1",
                        "n": [4096],
                        "alphas": [0.5],
                        "adaptive": False,
                        "include_cpu_fallback": False,
                    }
                )
            finally:
                await daemon.shutdown()

        job = asyncio.run(body())
        assert job.cache_hit is True
        assert job.run_id == "warm"
        assert job.cache_key == direct.cache_key


class TestTracedRunIsolation:
    def test_traced_sweep_ignores_earlier_tuner_work(self, tmp_path):
        """A traced run's manifest (analysis, metrics, conformance) may
        not depend on what the process simulated before it: the same
        traced sweep, run before and after a sweep sharing its
        (platform, n, noise) tuner with another alpha grid, records the
        same executor runs."""
        sweep = dict(TINY_SWEEP, alphas=[0.1, 0.2], levels=[9, 10], seed=7)
        other = dict(sweep, alphas=[0.2, 0.3])

        def traced(run_id):
            return run_request(
                tiny_spec(
                    tmp_path, dict(sweep, check_model=0.6), run_id=run_id
                )
            )

        first = traced("first")
        run_request(tiny_spec(tmp_path, other, run_id="other"))
        second = traced("second")
        assert first.cache_key == second.cache_key
        a = RunManifest.load(first.manifest_path)
        b = RunManifest.load(second.manifest_path)
        assert a.analysis and a.conformance["checks"] > 0
        assert diff_manifests(a, b) == []


class TestFaultRunIsolation:
    def test_fault_run_meets_its_faults_after_a_plain_run(
        self, tmp_path, monkeypatch
    ):
        """A run under a fault plan may not reuse what clean runs in the
        same process memoized: its recovery ledger is the same whether
        or not a plain run of the same sweep came first."""
        from repro.experiments import common
        from repro.resilience import (
            FaultPlan,
            FaultSpec,
            ResilienceConfig,
            RetryPolicy,
        )

        monkeypatch.setattr(common, "_TUNERS", {})  # a cold process
        config = ResilienceConfig(
            plan=FaultPlan(
                name="one-shot-kernel",
                faults=(FaultSpec(site="kernel", times=1),),
            ),
            retry=RetryPolicy(max_retries=2),
        )

        def faulted(run_id):
            outcome = run_request(
                tiny_spec(tmp_path, run_id=run_id, resilience=config)
            )
            return RunManifest.load(outcome.manifest_path).recovery

        cold = faulted("cold")
        run_request(tiny_spec(tmp_path, run_id="plain"))
        after_plain = faulted("after-plain")
        assert len(cold) > 0
        assert after_plain == cold


class TestDaemonKeyMatchesRunnerKey:
    """The key the daemon files a job under (from the validated
    request) must equal the key the runner computes from the spec the
    worker builds — else the job never hits the cache and its snapshot
    disagrees with its manifest."""

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "figure", "experiments": ["table1"]},
            {"kind": "figure", "experiments": ["table1"], "report": True},
            {
                "kind": "sweep",
                "platform": "HPU1",
                "n": [4096],
                "alphas": [0.5],
                "include_cpu_fallback": False,
            },
            {
                "kind": "sweep",
                "platform": "HPU2",
                "n": [4096],
                "alphas": [0.5],
                "levels": [0],
                "adaptive": False,
                "seed": 7,
            },
        ],
        ids=["figure", "figure-report", "sweep-no-fallback", "sweep-seeded"],
    )
    def test_keys_agree(self, tmp_path, data):
        from repro.serve.cache import cache_key
        from repro.serve.protocol import canonical_request, validate_request
        from repro.serve.worker import build_spec

        request = validate_request(data)
        canonical = canonical_request(request)
        outcome = run_request(
            build_spec(request, str(tmp_path), run_id="k")
        )
        assert outcome.request == canonical
        assert outcome.cache_key == cache_key(canonical)
