"""Registry adapter: closest pair of points in the plane.

The geometry member of the balanced family (a = b = 2, f(n) = Θ(n)):
leaves brute-force 4-point blocks of the x-sorted array, and each
internal level combines two child distances with the classic strip
scan around the dividing vertical line.  Subproblem solutions are
*scalars* (the minimum distance per range), exercising a workload
whose per-level data flow is a reduction rather than an array rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.algorithms.closest_pair import (
    brute_force_closest,
    closest_pair,
    strip_best,
)
from repro.core.schedule.workload import (
    LEAVES,
    DCWorkload,
    KernelStep,
    LevelRef,
)
from repro.errors import SpecError
from repro.opencl.kernel import AccessPattern
from repro.util.intmath import ilog2, is_power_of_two
from repro.workloads.registry import (
    HostRun,
    VerificationError,
    WorkloadEntry,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Points per leaf task (brute-forced directly).
LEAF_POINTS = 4

#: Model cost of one leaf: all 6 pairs of a 4-point block, ~2 ops each.
LEAF_COST = 12.0


@dataclass
class ClosestPairHost:
    """Host-side state: x-sorted points plus per-level best distances."""

    points: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        pts = np.asarray(self.points, dtype=float)
        n = pts.shape[0]
        if pts.ndim != 2 or pts.shape[1] != 2 or not is_power_of_two(max(n, 1)):
            raise SpecError(
                f"closest-pair host needs a power-of-two (n, 2) array, "
                f"got shape {pts.shape}"
            )
        order = np.argsort(pts[:, 0], kind="stable")
        self.points = pts[order]
        self.n = n
        self.k = ilog2(n) - ilog2(LEAF_POINTS)
        self.level_best = [
            np.full(1 << i, np.inf) for i in range(self.k)
        ]
        self.leaf_best = np.full(n // LEAF_POINTS, np.inf)

    def execute(
        self, phase: str, level: LevelRef, offset: int, count: int
    ) -> None:
        if phase == "base" or level == LEAVES:
            for j in range(offset, offset + count):
                lo = j * LEAF_POINTS
                self.leaf_best[j] = brute_force_closest(
                    self.points[lo : lo + LEAF_POINTS]
                )
            return
        level = int(level)
        seg = self.n >> level
        child = (
            self.level_best[level + 1]
            if level + 1 < self.k
            else self.leaf_best
        )
        for j in range(offset, offset + count):
            best = min(child[2 * j], child[2 * j + 1])
            pts = self.points[j * seg : (j + 1) * seg]
            best = min(best, strip_best(pts, float(pts[seg // 2, 0]), best))
            self.level_best[level][j] = best

    @property
    def distance(self) -> float:
        """The root solution: the minimum pairwise distance."""
        return float(self.level_best[0][0])


class _ClosestPairGpuSteps:
    """GPU steps: strip scans per range, brute-force blocks at leaves."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is _ClosestPairGpuSteps

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __call__(
        self, workload: DCWorkload, level: LevelRef, tasks: int, offset: int
    ) -> List[KernelStep]:
        if level == LEAVES:
            return [
                KernelStep(
                    name="leaf-bruteforce",
                    items=tasks,
                    ops_per_item=workload.leaf_cost,
                    divergent=True,
                    access=AccessPattern.COALESCED,
                )
            ]
        return [
            KernelStep(
                name=f"strip-scan:{level}",
                items=tasks,
                ops_per_item=workload.cost_at(level),
                divergent=True,  # data-dependent strip membership
                access=AccessPattern.STRIDED,
            )
        ]


def _make_workload(n: int, host) -> DCWorkload:
    k = ilog2(n) - ilog2(LEAF_POINTS)
    return DCWorkload(
        name=f"closest-pair[{n}]",
        level_tasks=[1 << i for i in range(k)],
        level_cost=[float(n >> i) for i in range(k)],
        leaf_tasks=n // LEAF_POINTS,
        leaf_cost=LEAF_COST,
        total_elements=n,  # points are the transfer unit
        element_bytes=16,  # two float64 coordinates
        working_set_factor=2.0,  # points + the y-sorted strip buffer
        execute=host.execute if host is not None else None,
        gpu_steps_fn=_ClosestPairGpuSteps(),
        rec_a=2,
        rec_b=2,
        meta={"leaf_points": LEAF_POINTS},
    )


def _build(n: int) -> DCWorkload:
    return _make_workload(n, host=None)


def _build_host(n: int, seed: int) -> HostRun:
    import numpy as np

    rng = np.random.default_rng(seed)
    host = ClosestPairHost(rng.random((n, 2)))
    workload = _make_workload(n, host=host)

    def verify() -> None:
        got = host.distance
        if not np.isfinite(got):
            raise VerificationError(
                f"closest-pair(n={n}): no distance computed (did the "
                f"combine levels run?)"
            )
        want = closest_pair(host.points)
        if not np.isclose(got, want, rtol=1e-9, atol=0.0):
            raise VerificationError(
                f"closest-pair(n={n}): got {got!r}, reference {want!r}"
            )

    return HostRun(workload=workload, verify=verify, host=host)


ENTRY = register(
    WorkloadEntry(
        workload_id="closest_pair",
        title="Closest pair of points (planar, strip-scan combine)",
        recurrence="T(n) = 2·T(n/2) + n",
        build=_build,
        size_label="points",
        min_n=16,
        build_host=_build_host,
        fast_sizes=(1 << 12, 1 << 16, 1 << 20),
        full_sizes=(1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20),
        conformance_band=0.52,
        meta={"leaf_points": LEAF_POINTS},
    )
)
