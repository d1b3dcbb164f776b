"""The D&C workload registry: declare a recursion, inherit the stack.

The paper's §4 claim is that *any* regular ``T(n) = a·T(n/b) + f(n)``
recursion translates mechanically into the hybrid CPU-GPU schedule.
This module makes that claim a plugin surface: a
:class:`WorkloadEntry` declares how to build the
:class:`~repro.core.schedule.workload.DCWorkload` for one problem size
(and, optionally, a host-backed instance that really computes over
data), and everything downstream — basic/advanced planning, the DES
executor and its macro fast path, autotuning, tracing/analytics, the
model-conformance oracle, the experiment runner (``figw``) and the
``repro-serve`` protocol — consumes entries through the registry and
needs no per-algorithm knowledge.

See ``docs/WORKLOADS.md`` for the registration walkthrough.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.schedule.workload import DCWorkload
from repro.errors import ReproError
from repro.util.intmath import is_power_of_two
from repro.util.rng import DEFAULT_SEED

#: The registry's reference entry (and every default elsewhere).
DEFAULT_WORKLOAD = "mergesort"


class WorkloadError(ReproError):
    """A workload registration or lookup failed."""


class VerificationError(WorkloadError):
    """A host-backed run produced an incorrect output."""


@dataclass(frozen=True)
class HostRun:
    """One host-backed problem instance: real data behind the hooks.

    ``workload`` carries the functional :data:`~repro.core.schedule.
    workload.ExecuteHook`, so simulated runs mutate ``host``'s arrays;
    ``verify()`` checks the final output against the algorithm's pure
    reference and raises :class:`VerificationError` on any mismatch —
    which makes schedule-coverage bugs (a batch dropped, duplicated or
    run out of level order) observable as wrong *answers*, not just
    wrong timings.
    """

    workload: DCWorkload
    verify: Callable[[], None]
    #: The adapter's host-state object (adapter-specific surface), for
    #: tests that want to inspect intermediate data.
    host: object = None


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload: recursion constants plus builders.

    ``build(n)`` returns the timing-only workload the sweeps and the
    macro fast path use; ``build_host(n, seed)`` returns a
    :class:`HostRun` whose simulated executions produce a verifiable
    output (``None`` for timing-only entries).  ``n`` is the entry's
    size parameter — elements for the sorts/FFT, points for geometry,
    the matrix dimension for the matrix products (see ``size_label``).
    """

    workload_id: str
    title: str
    #: Human-readable recurrence, e.g. ``"T(n) = 2·T(n/2) + n"``.
    recurrence: str
    build: Callable[[int], DCWorkload]
    size_label: str = "elements"
    min_n: int = 16
    build_host: Optional[Callable[[int, int], HostRun]] = None
    #: Default ``n`` grids for the ``figw`` speedup-vs-n experiment.
    fast_sizes: Tuple[int, ...] = ()
    full_sizes: Tuple[int, ...] = ()
    #: Pinned mean-relative-residual band for the conformance oracle at
    #: this workload's reference point (see tests/workloads).
    conformance_band: float = 0.60
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload_id or not self.workload_id.isidentifier():
            raise WorkloadError(
                f"workload id must be a non-empty identifier, got "
                f"{self.workload_id!r}"
            )
        if self.min_n < 4 or not is_power_of_two(self.min_n):
            raise WorkloadError(
                f"workload {self.workload_id!r}: min_n must be a power of "
                f"two >= 4, got {self.min_n}"
            )
        if self.conformance_band <= 0:
            raise WorkloadError(
                f"workload {self.workload_id!r}: conformance_band must be "
                f"positive, got {self.conformance_band}"
            )

    # ------------------------------------------------------------------
    def validate_n(self, n: int) -> int:
        """Check one problem size against the entry's constraints."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise WorkloadError(
                f"workload {self.workload_id!r}: n must be an integer, "
                f"got {n!r}"
            )
        if n < self.min_n or not is_power_of_two(n):
            raise WorkloadError(
                f"workload {self.workload_id!r}: n must be a power of two "
                f">= {self.min_n} ({self.size_label}), got {n}"
            )
        return n

    def workload(self, n: int) -> DCWorkload:
        """The timing-only workload for a validated problem size."""
        return self.build(self.validate_n(n))

    def host_run(self, n: int, seed: int = DEFAULT_SEED) -> HostRun:
        """A host-backed instance over deterministic data for ``seed``."""
        if self.build_host is None:
            raise WorkloadError(
                f"workload {self.workload_id!r} is timing-only: it "
                f"registers no host builder"
            )
        from repro.util.host import require_numpy

        require_numpy()
        return self.build_host(self.validate_n(n), seed)

    def default_sizes(self, fast: bool = False) -> Tuple[int, ...]:
        """The ``figw`` n-grid (fast/full), never empty."""
        sizes = self.fast_sizes if fast else self.full_sizes
        return sizes or (self.min_n,)


# ----------------------------------------------------------------------
# the registry proper
# ----------------------------------------------------------------------
#: The built-in ids, in listing order (mergesort first, the reference
#: entry), and the adapter module whose import registers each.
_BUILTINS: Dict[str, str] = {
    workload_id: f"repro.workloads.{workload_id}"
    for workload_id in (
        "mergesort", "quicksort", "closest_pair", "strassen", "fft", "matmul",
    )
}

#: id -> entry; ``None`` marks a built-in whose adapter has not been
#: imported yet.  A run that sweeps one workload imports one adapter.
_REGISTRY: Dict[str, Optional[WorkloadEntry]] = dict.fromkeys(_BUILTINS)


def _resolve(workload_id: str) -> Optional[WorkloadEntry]:
    """The entry under ``workload_id`` (importing a pending built-in's
    adapter, which registers it), or ``None`` when there is none."""
    entry = _REGISTRY.get(workload_id)
    if entry is None and workload_id in _REGISTRY:
        importlib.import_module(_BUILTINS[workload_id])
        entry = _REGISTRY[workload_id]
    return entry


def register(entry: WorkloadEntry, replace: bool = False) -> WorkloadEntry:
    """Add one entry; duplicate ids are an error unless ``replace``."""
    workload_id = entry.workload_id
    if (
        workload_id in _REGISTRY
        and _REGISTRY[workload_id] is None
        and _BUILTINS[workload_id] not in sys.modules
    ):
        # A pending built-in: load it first, as an eager registry
        # would have, so its adapter never registers over this entry.
        # (Mid-import, the adapter's own registration skips this.)
        _resolve(workload_id)
    if not replace and _REGISTRY.get(workload_id) is not None:
        raise WorkloadError(f"workload {workload_id!r} is already registered")
    _REGISTRY[workload_id] = entry
    return entry


def unregister(workload_id: str) -> None:
    """Remove an entry (primarily for tests registering toys)."""
    if _resolve(workload_id) is None:
        raise WorkloadError(f"unknown workload {workload_id!r}")
    del _REGISTRY[workload_id]


def is_registered(workload_id: str) -> bool:
    return workload_id in _REGISTRY


def get(workload_id: str) -> WorkloadEntry:
    """Look one entry up; unknown ids list what is available."""
    entry = _resolve(workload_id)
    if entry is None:
        raise WorkloadError(
            f"unknown workload {workload_id!r}; registered: "
            f"{', '.join(workload_ids()) or '(none)'}"
        )
    return entry


def workload_ids() -> Tuple[str, ...]:
    """All registered ids, in registration order (built-ins first)."""
    return tuple(_REGISTRY)


def entries() -> Tuple[WorkloadEntry, ...]:
    """All registered entries, in registration order."""
    return tuple([_resolve(workload_id) for workload_id in list(_REGISTRY)])
