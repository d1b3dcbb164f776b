"""The ``workload`` field across the serve protocol, runner, manifest.

A registered workload id rides on figure/sweep requests, folds into
the content-addressed cache key (with the legacy key unchanged for
mergesort), flows through the worker into the runner's ``RunSpec``,
and lands in the v5 manifest — with validation at every boundary.
"""

import pytest

from repro.experiments.runner import RunSpec, run_request
from repro.obs.manifest import SCHEMA_VERSION, RunManifest
from repro.serve.cache import cache_key
from repro.serve.protocol import (
    ProtocolError,
    canonical_request,
    validate_request,
)
from repro.serve.worker import build_spec


def figure(**overrides):
    data = {"kind": "figure", "experiments": ["figw"]}
    data.update(overrides)
    return data


def sweep(**overrides):
    data = {"kind": "sweep", "platform": "HPU1", "n": [1 << 12]}
    data.update(overrides)
    return data


class TestValidation:
    def test_sweep_accepts_registered_workload(self):
        request = validate_request(sweep(workload="quicksort"))
        assert request.workload == "quicksort"

    def test_unknown_workload_lists_registered(self):
        with pytest.raises(ProtocolError, match="mergesort"):
            validate_request(sweep(workload="no_such_workload"))

    def test_non_string_workload_rejected(self):
        with pytest.raises(ProtocolError, match="workload"):
            validate_request(sweep(workload=7))

    def test_sweep_sizes_checked_against_the_entry(self):
        # 4 is a power of two, but below the fft entry's min_n of 16:
        # rejected at submit time, not at run time.
        with pytest.raises(ProtocolError, match=">= 16"):
            validate_request(sweep(workload="fft", n=[4]))

    def test_figure_workload_requires_figw(self):
        with pytest.raises(ProtocolError, match="figw"):
            validate_request(
                figure(experiments=["fig8"], workload="strassen")
            )

    def test_figure_workload_with_figw_accepted(self):
        request = validate_request(figure(workload="strassen"))
        assert request.workload == "strassen"
        assert "figw" in request.experiments

    def test_round_trips_through_to_dict(self):
        request = validate_request(sweep(workload="fft"))
        assert request.to_dict()["workload"] == "fft"
        assert validate_request(request.to_dict()) == request

    def test_to_dict_omits_default_workload(self):
        request = validate_request(sweep())
        assert "workload" not in request.to_dict()


class TestCacheKey:
    def test_legacy_and_explicit_mergesort_share_a_key(self):
        """Pre-PR-8 cache entries must stay addressable."""
        legacy = validate_request(sweep())
        explicit = validate_request(sweep(workload="mergesort"))
        assert canonical_request(legacy) == canonical_request(explicit)
        assert cache_key(canonical_request(legacy)) == cache_key(
            canonical_request(explicit)
        )

    def test_canonical_form_resolves_the_default(self):
        canonical = canonical_request(validate_request(sweep()))
        assert canonical["workload"] == "mergesort"

    def test_other_workloads_get_distinct_keys(self):
        keys = {
            cache_key(
                canonical_request(validate_request(sweep(workload=w)))
            )
            for w in ("mergesort", "quicksort", "fft")
        }
        assert len(keys) == 3


class TestWorkerSpec:
    def test_sweep_spec_carries_the_workload(self):
        request = validate_request(sweep(workload="closest_pair"))
        spec = build_spec(request, results_dir="results")
        assert spec.request.workload == "closest_pair"
        assert spec.request.kind == "sweep"

    def test_figure_spec_carries_the_workload(self):
        request = validate_request(figure(workload="matmul"))
        spec = build_spec(request, results_dir="results")
        assert spec.request.workload == "matmul"
        assert spec.request.experiments == ("figw",)


class TestRunnerValidation:
    def test_unknown_workload_raises_value_error(self):
        with pytest.raises(ValueError, match="mergesort"):
            run_request(
                RunSpec(request=validate_request(
                    figure(workload="no_such_workload")
                ))
            )

    def test_figure_workload_without_figw_raises(self):
        with pytest.raises(ValueError, match="figw"):
            run_request(
                RunSpec(request=validate_request(
                    figure(experiments=["fig8"], workload="strassen")
                ))
            )


def _manifest(**overrides):
    kwargs = dict(
        run_id="test-run",
        created_unix=1754400000,
        argv=["figw", "--fast"],
        experiments=["figw"],
        fast=True,
        platforms={},
        seed=20140131,
        noise_amplitude=0.015,
        repro_version="1.0.0",
    )
    kwargs.update(overrides)
    return RunManifest(**kwargs)


class TestManifestV5:
    def test_schema_version_is_5(self):
        assert SCHEMA_VERSION == 5

    def test_workload_round_trips(self):
        data = _manifest(workload="strassen").to_dict()
        assert data["workload"] == "strassen"
        assert RunManifest.from_dict(data).workload == "strassen"

    def test_default_workload_is_mergesort(self):
        assert _manifest().workload == "mergesort"

    def test_v4_manifests_read_back_as_mergesort(self):
        data = _manifest().to_dict()
        del data["workload"]
        data["schema_version"] = 4
        assert RunManifest.from_dict(data).workload == "mergesort"
