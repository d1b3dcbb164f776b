"""The service protocol: typed, versioned JSON job requests.

A job request is one JSON object.  Two kinds exist:

``figure``
    Re-run one or more of the paper's experiments (``fig8``,
    ``table2``, ...), exactly as ``repro-experiments`` would.  Figure
    results are pinned to the library's seed and noise defaults, so a
    request naming different ones is rejected rather than silently
    producing an uncacheable hybrid.

``sweep``
    A custom operating-point grid search: one platform preset, a list
    of input sizes, an α grid and optional transfer levels, routed
    through :func:`repro.experiments.common.sweep_best_operating_points`.

Every accepted request **canonicalizes** to a flat, key-sorted dict of
resolved values — defaults filled in, grids normalized — which is what
the content-addressed result cache hashes (:func:`repro.serve.cache.
cache_key`) and what run manifests record as their ``request`` block.
Canonicalization is a pure function of the request: independent of
dict ordering, process identity and ``PYTHONHASHSEED``.

Transport framing is JSON lines: one compact JSON object per
``\\n``-terminated line, both directions (:func:`encode_message` /
:func:`decode_message`).  The protocol is versioned with
:data:`PROTOCOL_VERSION`; requests may pin a ``protocol`` field and
are rejected on mismatch, so an old client fails loudly instead of
being misinterpreted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Version of the request/response message schema.  Bump on any change
#: that alters field meaning; additive optional fields do not count.
PROTOCOL_VERSION = 1

#: Request kinds understood by the daemon.
KINDS = ("figure", "sweep")

#: Fields a request object may carry (anything else is an error —
#: strict parsing is what makes versioning meaningful).
_ALLOWED_FIELDS = frozenset(
    {
        "protocol",
        "kind",
        "experiments",
        "fast",
        "platform",
        "n",
        "alphas",
        "levels",
        "adaptive",
        "include_cpu_fallback",
        "noise_amplitude",
        "seed",
        "queue_backend",
        "macro",
        "check_model",
        "report",
        "priority",
        "retry",
        "timeout_s",
        "workload",
    }
)


class ProtocolError(ValueError):
    """A malformed or unsupported message/request."""


@dataclass(frozen=True)
class JobRequest:
    """One validated job request (the output of :func:`validate_request`).

    All fields are normalized: grids are tuples, paths of the
    ``figure`` kind carry experiment ids known to the runner, and
    job-level policies have already passed
    :class:`~repro.resilience.policies.RetryPolicy` /
    :class:`~repro.resilience.policies.TimeoutPolicy` validation.
    """

    kind: str
    experiments: Tuple[str, ...] = ()
    fast: bool = True
    platform: Optional[str] = None
    n: Tuple[int, ...] = ()
    alphas: Optional[Tuple[float, ...]] = None
    levels: Optional[Tuple[int, ...]] = None
    adaptive: Optional[bool] = None
    include_cpu_fallback: bool = True
    noise_amplitude: Optional[float] = None
    seed: Optional[int] = None
    queue_backend: Optional[str] = None
    macro: bool = True
    check_model: Optional[float] = None
    report: bool = False
    priority: int = 0
    #: Job-level retries: ``{"max_retries": N, "backoff": seconds}``,
    #: validated by constructing a RetryPolicy (whose ``delay()``
    #: schedule the daemon replays in wall-clock seconds).
    retry: Dict[str, float] = field(default_factory=dict)
    #: Job-level wall-clock deadline in seconds (validated through
    #: TimeoutPolicy's kernel-deadline rule: > 0 or absent).
    timeout_s: Optional[float] = None
    #: Registered workload id (:mod:`repro.workloads`); ``None`` keeps
    #: the historical mergesort default.
    workload: Optional[str] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able round-trip form (accepted by validate_request)."""
        data: Dict[str, object] = {
            "protocol": PROTOCOL_VERSION,
            "kind": self.kind,
            "fast": self.fast,
            "include_cpu_fallback": self.include_cpu_fallback,
            "macro": self.macro,
            "report": self.report,
            "priority": self.priority,
        }
        if self.experiments:
            data["experiments"] = list(self.experiments)
        if self.platform is not None:
            data["platform"] = self.platform
        if self.n:
            data["n"] = list(self.n)
        if self.alphas is not None:
            data["alphas"] = list(self.alphas)
        if self.levels is not None:
            data["levels"] = list(self.levels)
        if self.adaptive is not None:
            data["adaptive"] = self.adaptive
        if self.noise_amplitude is not None:
            data["noise_amplitude"] = self.noise_amplitude
        if self.seed is not None:
            data["seed"] = self.seed
        if self.queue_backend is not None:
            data["queue_backend"] = self.queue_backend
        if self.check_model is not None:
            data["check_model"] = self.check_model
        if self.retry:
            data["retry"] = dict(self.retry)
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        if self.workload is not None:
            data["workload"] = self.workload
        return data


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _as_bool(data: dict, key: str, default: bool) -> bool:
    value = data.get(key, default)
    _require(isinstance(value, bool), f"{key!r} must be a boolean")
    return value


def _as_number_tuple(value, key: str, cast) -> Tuple:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{key!r} must be a non-empty list",
    )
    out = []
    for item in value:
        _require(
            isinstance(item, (int, float)) and not isinstance(item, bool),
            f"{key!r} entries must be numbers, got {item!r}",
        )
        out.append(cast(item))
    return tuple(out)


def validate_request(data: object) -> JobRequest:
    """Validate one raw request object into a :class:`JobRequest`.

    Raises :class:`ProtocolError` with a user-facing message on any
    problem: wrong protocol version, unknown/missing fields, unknown
    experiment ids or platform presets, non-default seed/noise on a
    ``figure`` request, malformed grids, invalid job policies.
    """
    _require(isinstance(data, dict), "request must be a JSON object")
    assert isinstance(data, dict)
    unknown = sorted(set(data) - _ALLOWED_FIELDS)
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")

    protocol = data.get("protocol", PROTOCOL_VERSION)
    _require(
        protocol == PROTOCOL_VERSION,
        f"unsupported protocol version {protocol!r} "
        f"(this daemon speaks {PROTOCOL_VERSION})",
    )

    kind = data.get("kind")
    _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")

    fast = _as_bool(data, "fast", True)
    macro = _as_bool(data, "macro", True)
    report = _as_bool(data, "report", False)
    include_cpu_fallback = _as_bool(data, "include_cpu_fallback", True)

    priority = data.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        f"priority must be an integer, got {priority!r}",
    )

    queue_backend = data.get("queue_backend")
    if queue_backend is not None:
        from repro.sim.events import QUEUE_BACKENDS

        _require(
            queue_backend in QUEUE_BACKENDS,
            f"unknown queue_backend {queue_backend!r}; available: "
            f"{', '.join(sorted(QUEUE_BACKENDS))}",
        )

    check_model = data.get("check_model")
    if check_model is True:
        from repro.core.model.oracle import DEFAULT_RESIDUAL_BAND

        check_model = DEFAULT_RESIDUAL_BAND
    elif check_model is False:
        check_model = None
    if check_model is not None:
        _require(
            isinstance(check_model, (int, float))
            and not isinstance(check_model, bool)
            and check_model > 0,
            f"check_model must be true or a positive residual band, "
            f"got {data.get('check_model')!r}",
        )
        check_model = float(check_model)

    seed = data.get("seed")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool),
            f"seed must be an integer, got {seed!r}",
        )
    noise_amplitude = data.get("noise_amplitude")
    if noise_amplitude is not None:
        _require(
            isinstance(noise_amplitude, (int, float))
            and not isinstance(noise_amplitude, bool)
            and 0.0 <= float(noise_amplitude) < 1.0,
            f"noise_amplitude must be in [0, 1), got {noise_amplitude!r}",
        )
        noise_amplitude = float(noise_amplitude)

    # Job-level policies are validated by the resilience layer's own
    # dataclasses, so the service and the simulator agree on what a
    # legal retry/deadline spec is.
    from repro.errors import FaultInjectionError
    from repro.resilience.policies import RetryPolicy, TimeoutPolicy

    retry = data.get("retry") or {}
    _require(isinstance(retry, dict), "retry must be an object")
    retry_unknown = sorted(set(retry) - {"max_retries", "backoff"})
    _require(
        not retry_unknown,
        f"unknown retry field(s): {', '.join(retry_unknown)}",
    )
    timeout_s = data.get("timeout_s")
    try:
        RetryPolicy(
            max_retries=int(retry.get("max_retries", 0)),
            backoff=float(retry.get("backoff", 0.0)),
        )
        TimeoutPolicy(
            kernel_deadline=(
                float(timeout_s) if timeout_s is not None else None
            )
        )
    except (FaultInjectionError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid job policy: {exc}") from exc
    if timeout_s is not None:
        timeout_s = float(timeout_s)
    retry = {
        "max_retries": int(retry.get("max_retries", 0)),
        "backoff": float(retry.get("backoff", 0.0)),
    }
    if retry == {"max_retries": 0, "backoff": 0.0}:
        retry = {}

    workload = data.get("workload")
    entry = None
    if workload is not None:
        _require(
            isinstance(workload, str),
            f"workload must be a string, got {workload!r}",
        )
        from repro.workloads import WorkloadError, get as _get_workload

        try:
            entry = _get_workload(workload)
        except WorkloadError as exc:
            raise ProtocolError(str(exc)) from exc

    if kind == "figure":
        for key in ("platform", "n", "alphas", "levels", "adaptive"):
            _require(
                data.get(key) is None,
                f"{key!r} only applies to kind='sweep'",
            )
        from repro.experiments.runner import EXPERIMENTS
        from repro.util.rng import DEFAULT_SEED

        experiments = data.get("experiments")
        _require(
            isinstance(experiments, (list, tuple)) and len(experiments) > 0,
            "a figure request needs a non-empty 'experiments' list",
        )
        assert isinstance(experiments, (list, tuple))
        bad = [e for e in experiments if e not in EXPERIMENTS]
        _require(
            not bad,
            f"unknown experiment(s): {', '.join(map(repr, bad))}; "
            f"available: {', '.join(EXPERIMENTS)}",
        )
        # Figure outputs are the paper's golden numbers: they are only
        # cacheable (and only comparable to direct runner output) at
        # the library defaults.
        _require(
            seed is None or seed == DEFAULT_SEED,
            f"figure runs are pinned to the library seed "
            f"{DEFAULT_SEED}; use kind='sweep' for custom seeds",
        )
        _require(
            noise_amplitude is None,
            "figure runs are pinned to the library noise model; use "
            "kind='sweep' for custom noise",
        )
        _require(
            workload is None or "figw" in experiments,
            "'workload' on a figure request retargets the figw "
            "experiment; include 'figw' in 'experiments'",
        )
        return JobRequest(
            kind="figure",
            experiments=tuple(str(e) for e in experiments),
            fast=fast,
            include_cpu_fallback=include_cpu_fallback,
            queue_backend=queue_backend,
            macro=macro,
            check_model=check_model,
            report=report,
            priority=priority,
            retry=retry,
            timeout_s=timeout_s,
            workload=workload,
        )

    # kind == "sweep"
    _require(
        data.get("experiments") is None,
        "'experiments' only applies to kind='figure'",
    )
    from repro.hpu.platforms import PLATFORMS

    platform = data.get("platform")
    _require(
        isinstance(platform, str) and platform in PLATFORMS,
        f"platform must be one of {sorted(PLATFORMS)}, got {platform!r}",
    )
    n = _as_number_tuple(data.get("n"), "n", int)
    # The hybrid workloads follow the paper in requiring power-of-two
    # inputs; reject at submit time instead of failing on a worker.
    _require(
        all(v > 0 and (v & (v - 1)) == 0 for v in n),
        "'n' entries must be positive powers of two",
    )
    if entry is not None:
        from repro.workloads import WorkloadError

        try:
            for v in n:
                entry.validate_n(v)
        except WorkloadError as exc:
            raise ProtocolError(str(exc)) from exc
    alphas = data.get("alphas")
    if alphas is not None:
        alphas = _as_number_tuple(alphas, "alphas", float)
        _require(
            all(0.0 < a < 1.0 for a in alphas),
            "'alphas' entries must be in (0, 1)",
        )
    levels = data.get("levels")
    if levels is not None:
        levels = _as_number_tuple(levels, "levels", int)
        _require(all(v >= 0 for v in levels), "'levels' must be >= 0")
    adaptive = data.get("adaptive")
    if adaptive is not None:
        _require(isinstance(adaptive, bool), "'adaptive' must be a boolean")
    return JobRequest(
        kind="sweep",
        fast=fast,
        platform=platform,
        n=n,
        alphas=alphas,
        levels=levels,
        adaptive=adaptive,
        include_cpu_fallback=include_cpu_fallback,
        noise_amplitude=noise_amplitude,
        seed=seed,
        queue_backend=queue_backend,
        macro=macro,
        check_model=check_model,
        report=report,
        priority=priority,
        retry=retry,
        timeout_s=timeout_s,
        workload=workload,
    )


# ----------------------------------------------------------------------
# canonicalization (the cache's identity function)
# ----------------------------------------------------------------------
#: Version of the canonical-request layout.  Part of every cache key:
#: bump it to invalidate all cached results after a semantic change.
CACHE_SCHEMA = 1


def canonical_request(
    request: JobRequest,
    *,
    traced: bool = False,
    resilient: bool = False,
) -> dict:
    """The canonical, fully-resolved form of a request.

    Every field that can influence the bytes of the run's manifest is
    present with its *effective* value (defaults resolved): platform
    and workload, the n grid, noise amplitude and seed, the schedule
    family, α/level grids, queue backend and macro flag, the
    observability profile (``traced``/``check_model``/``report`` change
    manifest contents even though simulated numbers are bit-identical),
    and the library version.  Excluded on purpose: priority and job
    policies (they change *when* a job runs, never what it produces),
    and anything volatile (run id, argv, host).

    ``resilient`` marks runs executed under an active fault-injection /
    recovery session; they are behaviourally distinct and never cache.
    """
    import repro
    from repro.experiments.common import MEASUREMENT_NOISE
    from repro.sim.events import default_backend
    from repro.util.rng import DEFAULT_SEED

    queue_backend = request.queue_backend or default_backend()
    noise_amplitude = (
        request.noise_amplitude
        if request.noise_amplitude is not None
        else MEASUREMENT_NOISE.amplitude
    )
    seed = request.seed if request.seed is not None else DEFAULT_SEED
    adaptive = request.adaptive if request.adaptive is not None else request.fast
    canonical = {
        "adaptive": bool(adaptive) if request.kind == "sweep" else None,
        "alphas": (
            [float(a) for a in request.alphas]
            if request.alphas is not None
            else None
        ),
        "cache_schema": CACHE_SCHEMA,
        "check_model": request.check_model,
        "experiments": list(request.experiments) or None,
        "fast": bool(request.fast),
        "include_cpu_fallback": bool(request.include_cpu_fallback),
        "kind": request.kind,
        "levels": (
            [int(v) for v in request.levels]
            if request.levels is not None
            else None
        ),
        "macro": bool(request.macro),
        "n": [int(v) for v in request.n] or None,
        "noise_amplitude": float(noise_amplitude),
        "platform": request.platform,
        "queue_backend": queue_backend,
        "report": bool(request.report),
        "repro_version": repro.__version__,
        "resilient": bool(resilient),
        "schedule": "advanced" if request.kind == "sweep" else None,
        "seed": int(seed),
        "traced": bool(
            traced or request.check_model is not None or request.report
        ),
        # Resolved default: requests predating the workload registry
        # canonicalize (and hence cache) identically to explicit
        # mergesort ones.
        "workload": request.workload or "mergesort",
    }
    return canonical


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_message(message: dict) -> bytes:
    """One JSON-lines frame: compact, key-sorted, newline-terminated."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message
