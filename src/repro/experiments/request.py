"""The run request: one validated description of a run, argv to cache key.

A request is one JSON object.  Two kinds exist:

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

:func:`validate_request` turns the object into a :class:`JobRequest`;
the runner's argv, the serve daemon's submissions and library callers
all go through it, and :class:`~repro.experiments.runner.RunSpec`
carries the result.  Every accepted request **canonicalizes**
(:func:`canonical_request`) to a flat, key-sorted dict of resolved
values — defaults filled in, grids normalized, the source fingerprint
of the package that runs it — which the sweep runs from, the
content-addressed result cache hashes (:func:`repro.serve.cache.
cache_key`) and run manifests record as their ``request`` block.
Canonicalization is a pure function of the request and the package
source: independent of dict ordering, process identity and
``PYTHONHASHSEED``.

This module imports nothing of :mod:`repro.serve`; the daemon's
framing lives in :mod:`repro.serve.protocol`, which re-exports these
names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, Optional, Tuple

#: Version of the request/response message schema.  Bump on any change
#: that alters field meaning; additive optional fields do not count.
PROTOCOL_VERSION = 1

#: Request kinds.
KINDS = ("figure", "sweep")


class ProtocolError(ValueError):
    """A malformed or unsupported message/request."""


@dataclass(frozen=True)
class JobRequest:
    """One validated request (the output of :func:`validate_request`).

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

    def to_dict(self) -> dict:
        """JSON-able round-trip form (accepted by validate_request):
        every set field, ``include_cpu_fallback`` on sweeps only."""
        data: Dict[str, object] = {"protocol": PROTOCOL_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None or value == () or value == {}:
                continue
            if spec.name == "include_cpu_fallback" and self.kind != "sweep":
                continue
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            data[spec.name] = value
        return data


#: Fields a request object may carry (anything else is an error —
#: strict parsing is what makes versioning meaningful).
_ALLOWED_FIELDS = frozenset(
    {spec.name for spec in fields(JobRequest)} | {"protocol"}
)


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


def _is_number(value: object) -> bool:
    """An int or float, but not a bool (JSON ``true`` is not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_number_tuple(value, key: str, cast) -> Tuple:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{key!r} must be a non-empty list",
    )
    out = []
    for item in value:
        _require(
            _is_number(item),
            f"{key!r} entries must be numbers, got {item!r}",
        )
        out.append(cast(item))
    return tuple(out)


def _job_policies(data: dict) -> Tuple[Dict[str, float], Optional[float]]:
    """The validated ``retry`` and ``timeout_s`` of a request.

    Validated by the resilience layer's own dataclasses, so the service
    and the simulator agree on what a legal retry/deadline spec is;
    only a request that carries a policy loads them.
    """
    retry = data.get("retry")
    if retry is None:
        retry = {}
    _require(isinstance(retry, dict), "retry must be an object")
    retry_unknown = sorted(set(retry) - {"max_retries", "backoff"})
    _require(
        not retry_unknown,
        f"unknown retry field(s): {', '.join(retry_unknown)}",
    )
    max_retries = retry.get("max_retries", 0)
    _require(
        _is_int(max_retries),
        f"retry.max_retries must be an integer, got {max_retries!r}",
    )
    # Finite too: the daemon sleeps the backoff and waits out the
    # deadline in wall-clock time, and JSON lines may carry Infinity/NaN.
    backoff = retry.get("backoff", 0.0)
    _require(
        _is_number(backoff) and math.isfinite(backoff),
        f"retry.backoff must be a finite number, got {backoff!r}",
    )
    timeout_s = data.get("timeout_s")
    if timeout_s is not None:
        _require(
            _is_number(timeout_s) and math.isfinite(timeout_s),
            f"timeout_s must be a finite number, got {timeout_s!r}",
        )
        timeout_s = float(timeout_s)
    if retry or timeout_s is not None:
        from repro.errors import FaultInjectionError
        from repro.resilience.policies import RetryPolicy, TimeoutPolicy

        try:
            RetryPolicy(max_retries=max_retries, backoff=float(backoff))
            TimeoutPolicy(kernel_deadline=timeout_s)
        except FaultInjectionError as exc:
            raise ProtocolError(f"invalid job policy: {exc}") from exc
    retry = {"max_retries": max_retries, "backoff": float(backoff)}
    if retry == {"max_retries": 0, "backoff": 0.0}:
        retry = {}
    return retry, timeout_s


def validate_request(data: object) -> JobRequest:
    """Validate one raw request object into a :class:`JobRequest`.

    Raises :class:`ProtocolError` with a user-facing message on any
    problem: wrong protocol version, unknown/missing fields, unknown
    experiment ids, workloads or platform presets, non-default
    seed/noise on a ``figure`` request, malformed grids, invalid job
    policies.
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

    priority = data.get("priority", 0)
    _require(_is_int(priority), f"priority must be an integer, got {priority!r}")

    check_model = data.get("check_model")
    if check_model is False:
        check_model = None
    if check_model is not None:
        from repro.core.model.oracle import (
            DEFAULT_RESIDUAL_BAND,
            is_residual_band,
        )

        if check_model is True:
            check_model = DEFAULT_RESIDUAL_BAND
        _require(
            is_residual_band(check_model),
            f"check_model must be true or a finite positive residual "
            f"band, got {data.get('check_model')!r}",
        )
        check_model = float(check_model)

    seed = data.get("seed")
    if seed is not None:
        _require(_is_int(seed), f"seed must be an integer, got {seed!r}")
    noise_amplitude = data.get("noise_amplitude")
    if noise_amplitude is not None:
        _require(
            _is_number(noise_amplitude)
            and 0.0 <= float(noise_amplitude) < 1.0,
            f"noise_amplitude must be in [0, 1), got {noise_amplitude!r}",
        )
        noise_amplitude = float(noise_amplitude)

    retry, timeout_s = _job_policies(data)

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

    common = dict(
        fast=_as_bool(data, "fast", True),
        check_model=check_model,
        report=_as_bool(data, "report", False),
        priority=priority,
        retry=retry,
        timeout_s=timeout_s,
        workload=workload,
    )
    include_cpu_fallback = _as_bool(data, "include_cpu_fallback", True)

    if kind == "figure":
        for key in (
            "platform", "n", "alphas", "levels", "adaptive",
            "include_cpu_fallback",
        ):
            _require(
                data.get(key) is None,
                f"{key!r} only applies to kind='sweep'",
            )
        from repro.experiments.runner import EXPERIMENTS

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
        if seed is not None:
            from repro.util.rng import DEFAULT_SEED

            _require(
                seed == DEFAULT_SEED,
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
            **common,
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
        platform=platform,
        n=n,
        alphas=alphas,
        levels=levels,
        adaptive=adaptive,
        include_cpu_fallback=include_cpu_fallback,
        noise_amplitude=noise_amplitude,
        seed=seed,
        **common,
    )


# ----------------------------------------------------------------------
# canonicalization (the cache's identity function)
# ----------------------------------------------------------------------
#: Version of the canonical-request layout.  Part of every cache key:
#: bump it to invalidate all cached results after a semantic change.
#: v2: the event-queue and macro-path fields left the request (they
#: never changed a result); ``include_cpu_fallback`` keys sweeps only.
#: v3: ``source`` (the package's source fingerprint) replaces
#: ``repro_version``, so a code change never serves an older result.
CACHE_SCHEMA = 3

@lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """blake2b over the sorted relative paths and bytes of the imported
    ``repro`` package's ``*.py`` files; computed once per process."""
    import hashlib
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0%d\0" % len(data))
        digest.update(data)
    return digest.hexdigest()


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
    family, α/level grids and (sweeps only) the adaptive search and the
    CPU-fallback candidate, the observability profile
    (``traced``/``check_model``/``report`` change manifest contents
    even though simulated numbers are bit-identical), and the source
    fingerprint of the code that runs it.  Excluded on purpose:
    priority and job policies (they change *when* a job runs, never
    what it produces), and anything volatile (run id, argv, host).
    A sweep runs from this dict, so it runs exactly what its key names.

    ``resilient`` marks runs executed under an active fault-injection /
    recovery session; they are behaviourally distinct and never cache.
    """
    from repro.experiments.common import MEASUREMENT_NOISE
    from repro.util.rng import DEFAULT_SEED

    sweep = request.kind == "sweep"
    return {
        "adaptive": (
            bool(request.fast if request.adaptive is None else request.adaptive)
            if sweep
            else None
        ),
        "alphas": (
            [float(a) for a in request.alphas]
            if request.alphas is not None
            else None
        ),
        "cache_schema": CACHE_SCHEMA,
        "check_model": request.check_model,
        "experiments": list(request.experiments) or None,
        "fast": bool(request.fast),
        "include_cpu_fallback": (
            bool(request.include_cpu_fallback) if sweep else None
        ),
        "kind": request.kind,
        "levels": (
            [int(v) for v in request.levels]
            if request.levels is not None
            else None
        ),
        "n": [int(v) for v in request.n] or None,
        "noise_amplitude": float(
            MEASUREMENT_NOISE.amplitude
            if request.noise_amplitude is None
            else request.noise_amplitude
        ),
        "platform": request.platform,
        "report": bool(request.report),
        "resilient": bool(resilient),
        "schedule": "advanced" if sweep else None,
        "seed": int(DEFAULT_SEED if request.seed is None else request.seed),
        "source": source_fingerprint(),
        "traced": bool(
            traced or request.check_model is not None or request.report
        ),
        # Resolved default: requests predating the workload registry
        # canonicalize (and hence cache) identically to explicit
        # mergesort ones.
        "workload": request.workload or "mergesort",
    }
