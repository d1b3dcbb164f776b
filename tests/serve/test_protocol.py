"""Protocol validation: strict typed requests, versioning, framing."""

import pytest

from repro.core.model.oracle import DEFAULT_RESIDUAL_BAND
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    decode_message,
    encode_message,
    validate_request,
)
from repro.util.rng import DEFAULT_SEED


def figure(**overrides):
    data = {"kind": "figure", "experiments": ["fig8"]}
    data.update(overrides)
    return data


def sweep(**overrides):
    data = {"kind": "sweep", "platform": "HPU1", "n": [1 << 17]}
    data.update(overrides)
    return data


class TestValidateFigure:
    def test_minimal_figure_request(self):
        request = validate_request(figure())
        assert request.kind == "figure"
        assert request.experiments == ("fig8",)
        assert request.fast is True

    def test_round_trips_through_to_dict(self):
        request = validate_request(
            figure(fast=False, report=True, priority=3)
        )
        again = validate_request(request.to_dict())
        assert again == request
        # A sweep-only field: emitting it would make the round trip
        # fail its own validation.
        assert "include_cpu_fallback" not in request.to_dict()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ProtocolError, match="unknown experiment"):
            validate_request(figure(experiments=["fig99"]))

    def test_empty_experiments_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            validate_request(figure(experiments=[]))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            validate_request(figure(color="red"))

    def test_protocol_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            validate_request(figure(protocol=PROTOCOL_VERSION + 1))

    def test_matching_protocol_version_accepted(self):
        assert validate_request(figure(protocol=PROTOCOL_VERSION))

    def test_figure_pins_seed(self):
        assert validate_request(figure(seed=DEFAULT_SEED))
        with pytest.raises(ProtocolError, match="pinned to the library seed"):
            validate_request(figure(seed=7))

    def test_figure_rejects_custom_noise(self):
        with pytest.raises(ProtocolError, match="noise"):
            validate_request(figure(noise_amplitude=0.1))

    def test_figure_rejects_sweep_fields(self):
        # include_cpu_fallback too: only a sweep tries the CPU-only
        # candidate, so on a figure it would split the cache key
        # without changing the run.
        for extra in (
            {"platform": "HPU1"},
            {"include_cpu_fallback": False},
            {"include_cpu_fallback": True},
        ):
            with pytest.raises(ProtocolError, match="sweep"):
                validate_request(figure(**extra))

    def test_unknown_queue_backend_rejected(self):
        # The event queue is not selectable: the field is unknown.
        with pytest.raises(ProtocolError, match="unknown request field"):
            validate_request(figure(queue_backend="heap"))


class TestValidateSweep:
    def test_minimal_sweep_request(self):
        request = validate_request(sweep())
        assert request.kind == "sweep"
        assert request.platform == "HPU1"
        assert request.n == (1 << 17,)

    def test_sweep_allows_custom_seed_and_noise(self):
        request = validate_request(sweep(seed=7, noise_amplitude=0.05))
        assert request.seed == 7
        assert request.noise_amplitude == 0.05

    def test_unknown_platform_rejected(self):
        with pytest.raises(ProtocolError, match="platform"):
            validate_request(sweep(platform="TPU9"))

    def test_non_power_of_two_n_rejected(self):
        with pytest.raises(ProtocolError, match="powers of two"):
            validate_request(sweep(n=[100000]))

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="alphas"):
            validate_request(sweep(alphas=[0.0, 0.5]))

    def test_sweep_rejects_experiments(self):
        with pytest.raises(ProtocolError, match="figure"):
            validate_request(sweep(experiments=["fig8"]))

    def test_round_trips_through_to_dict(self):
        request = validate_request(
            sweep(
                alphas=[0.25, 0.5],
                levels=[0, 1],
                seed=3,
                adaptive=False,
                include_cpu_fallback=False,
            )
        )
        assert validate_request(request.to_dict()) == request


class TestJobPolicies:
    def test_retry_and_timeout_accepted(self):
        request = validate_request(
            figure(retry={"max_retries": 2, "backoff": 0.5}, timeout_s=30)
        )
        assert request.retry == {"max_retries": 2, "backoff": 0.5}
        assert request.timeout_s == 30.0

    def test_default_retry_normalizes_to_empty(self):
        request = validate_request(
            figure(retry={"max_retries": 0, "backoff": 0.0})
        )
        assert request.retry == {}

    @pytest.mark.parametrize(
        "bad",
        [
            {"retry": {"max_retries": -1}},
            {"retry": {"backoff": -2.0}},
            {"timeout_s": 0},
            {"timeout_s": -5},
        ],
    )
    def test_invalid_policy_rejected(self, bad):
        with pytest.raises(ProtocolError, match="invalid job policy"):
            validate_request(figure(**bad))

    @pytest.mark.parametrize(
        "bad,field",
        [
            ({"timeout_s": True}, "timeout_s"),
            ({"timeout_s": "5"}, "timeout_s"),
            ({"retry": {"max_retries": "2"}}, "max_retries"),
            ({"retry": {"max_retries": 2.9}}, "max_retries"),
            ({"retry": {"max_retries": True}}, "max_retries"),
            ({"retry": {"backoff": True}}, "backoff"),
            ({"retry": {"backoff": "0.5"}}, "backoff"),
            ({"retry": {"backoff": float("inf")}}, "backoff"),
            ({"retry": {"backoff": float("nan")}}, "backoff"),
            ({"timeout_s": float("inf")}, "timeout_s"),
            ({"retry": False}, "retry must be an object"),
            ({"retry": 0}, "retry must be an object"),
            ({"retry": ""}, "retry must be an object"),
            ({"retry": []}, "retry must be an object"),
            ({"retry": 3}, "retry must be an object"),
        ],
    )
    def test_policy_of_wrong_type_rejected(self, bad, field):
        with pytest.raises(ProtocolError, match=field):
            validate_request(figure(**bad))

    def test_null_retry_means_no_retries(self):
        assert validate_request(figure(retry=None)).retry == {}

    def test_unknown_retry_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown retry field"):
            validate_request(figure(retry={"jitter": 0.1}))


class TestCheckModel:
    @pytest.mark.parametrize(
        "value,band",
        [(True, DEFAULT_RESIDUAL_BAND), (False, None), (None, None), (0.25, 0.25)],
    )
    def test_usable_values_accepted(self, value, band):
        assert validate_request(figure(check_model=value)).check_model == band

    @pytest.mark.parametrize(
        "band", [float("inf"), float("nan"), 0, -1, "0.5", [0.5]]
    )
    def test_unusable_band_rejected(self, band):
        with pytest.raises(ProtocolError, match="check_model"):
            validate_request(figure(check_model=band))


class TestFraming:
    def test_round_trip(self):
        message = {"op": "submit", "request": figure()}
        assert decode_message(encode_message(message)) == message

    def test_encoded_frame_is_one_line(self):
        raw = encode_message({"op": "ping", "note": "a\nb"})
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_junk_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(b"not json\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1,2,3]\n")


class TestRequestDataclass:
    def test_frozen(self):
        request = validate_request(figure())
        with pytest.raises(AttributeError):
            request.kind = "sweep"

    def test_defaults_match_runner_defaults(self):
        request = JobRequest(kind="figure", experiments=("fig8",))
        assert request.fast is True
        assert request.priority == 0
        assert request.retry == {}
        assert request.timeout_s is None
