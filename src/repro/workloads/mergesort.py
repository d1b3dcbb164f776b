"""Registry adapter: mergesort (the reference entry).

Thin delegation to :mod:`repro.algorithms.mergesort.hybrid` — the
timing build *is* ``make_mergesort_workload(n)``, value-identical to
what every pre-registry experiment constructed, so routing the sweeps
through the registry cannot move a golden number
(``tests/workloads/test_mergesort_reference.py`` pins this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.mergesort.hybrid import (
    MergesortHost,
    make_mergesort_workload,
)
from repro.core.schedule.workload import DCWorkload
from repro.workloads.registry import (
    HostRun,
    VerificationError,
    WorkloadEntry,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _build(n: int) -> DCWorkload:
    return make_mergesort_workload(n)


def _build_host(n: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 30, size=n, dtype=np.int64).astype(np.int32)
    original = data.copy()
    host = MergesortHost(data)
    workload = make_mergesort_workload(n, host=host)

    def verify() -> None:
        out = host.array
        if not np.all(out[:-1] <= out[1:]):
            raise VerificationError(
                f"mergesort(n={n}): output is not sorted"
            )
        if not np.array_equal(out, np.sort(original)):
            raise VerificationError(
                f"mergesort(n={n}): output is not a permutation of the "
                f"input"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="mergesort",
        title="Hybrid mergesort (Algorithm 8, the paper's case study)",
        recurrence="T(n) = 2·T(n/2) + n",
        build=_build,
        size_label="elements",
        min_n=16,
        build_host=_build_host,
        fast_sizes=(1 << 12, 1 << 16, 1 << 20),
        full_sizes=(1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22),
        conformance_band=0.35,
        meta={"combine_heavy": True},
    )
)
