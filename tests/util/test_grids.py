"""The stdlib grid helpers reproduce numpy's grids bit for bit.

Every α grid that feeds a golden output used to be a numpy array, so
each helper is checked against the numpy function it replaces over
many seeded inputs, compared as ``float.hex``.  The one exception is
``geomspace``: numpy's vectorized power differs from libm's ``pow`` in
the last bits, so its interior points are pinned to a relative 1e-13,
and the integer thread grid the g sweep builds from it is pinned
exactly.  The calibration medians are pinned the same way.
"""

import math
import random
import statistics

import numpy as np
import pytest

from repro.core.calibrate import estimate_g, estimate_gamma
from repro.experiments.common import MEASUREMENT_NOISE
from repro.hpu import PLATFORMS
from repro.util.grids import (
    arange,
    geomspace,
    linspace,
    round_all,
    round_decimals,
)


def hexes(values):
    return [float(v).hex() for v in values]


class TestRoundDecimals:
    def test_matches_numpy_over_random_inputs(self):
        rnd = random.Random(11)
        for _ in range(5000):
            x = rnd.choice(
                [
                    rnd.uniform(-1.0, 1.0),
                    rnd.uniform(-1e6, 1e6),
                    # values sitting on a rounding tie after scaling
                    rnd.randint(-2000, 2000) / 2e4 + rnd.choice([-5e-5, 5e-5]),
                ]
            )
            for d in range(9):
                assert round_decimals(x, d).hex() == float(np.round(x, d)).hex()

    def test_is_not_pythons_round(self):
        # 2.675 * 100 rounds to 267.5 -> rint gives 268 -> 2.68, while
        # Python's correctly rounded round() sees 2.67499... -> 2.67.
        assert round_decimals(2.675, 2) == float(np.round(2.675, 2)) == 2.68
        assert round(2.675, 2) == 2.67

    def test_signed_zero(self):
        assert round_decimals(-0.0001, 2).hex() == float(
            np.round(-0.0001, 2)
        ).hex() == "-0x0.0p+0"

    def test_round_all(self):
        values = [0.123456789, 0.5, 1.0 / 3.0]
        assert round_all(values, 4) == np.round(values, 4).tolist()


class TestArange:
    @pytest.mark.parametrize(
        "start,stop,step",
        [
            (0.04, 0.44, 0.04),
            (0.04, 0.44, 0.02),
            (0.02, 0.5, 0.02),
            (0.04, 0.36, 0.08),
            (0.05, 0.5, 0.1),
            (0.05, 0.5, 0.05),
            (0.3, 0.1, 0.1),  # empty
            (0.0, 0.1, 0.1),  # one element
            (0.0, 0.2, 0.1),  # two elements
        ],
    )
    def test_repo_grids(self, start, stop, step):
        assert hexes(arange(start, stop, step)) == hexes(
            np.arange(start, stop, step)
        )

    def test_matches_numpy_over_random_inputs(self):
        rnd = random.Random(12)
        for _ in range(5000):
            start = rnd.uniform(-1.0, 1.0)
            step = rnd.choice([rnd.uniform(1e-3, 0.3), 0.01, 0.02, 0.04])
            stop = start + rnd.uniform(-0.1, 3.0)
            assert hexes(arange(start, stop, step)) == hexes(
                np.arange(start, stop, step)
            )

    def test_fill_formula_differs_from_repeated_addition(self):
        # numpy fills start + i*((start+step)-start); summing the step
        # drifts away from it within the repo's own fine grid.
        grid = arange(0.02, 0.5, 0.02)
        summed, value = [], 0.02
        for _ in grid:
            summed.append(value)
            value += 0.02
        assert grid != summed
        assert hexes(grid) == hexes(np.arange(0.02, 0.5, 0.02))

    def test_zero_step_rejected(self):
        with pytest.raises(ZeroDivisionError):
            np.arange(0.0, 1.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            arange(0.0, 1.0, 0.0)


class TestLinspace:
    @pytest.mark.parametrize(
        "start,stop,num",
        [(0.02, 0.35, 12), (0.02, 0.35, 34), (1e-3, 0.999, 4000),
         (0.00098, 1.0, 512), (0.5, 0.5, 7), (1.0, 0.0, 5),
         (0.2, 0.3, 1), (0.2, 0.3, 0), (0.2, 0.3, 2)],
    )
    def test_repo_grids(self, start, stop, num):
        assert hexes(linspace(start, stop, num)) == hexes(
            np.linspace(start, stop, num)
        )

    def test_matches_numpy_over_random_inputs(self):
        rnd = random.Random(13)
        for _ in range(2000):
            lo = rnd.uniform(-2.0, 1.0)
            hi = rnd.choice([lo, 1.0, lo + rnd.uniform(0.0, 3.0)])
            num = rnd.randint(0, 600)
            assert hexes(linspace(lo, hi, num)) == hexes(
                np.linspace(lo, hi, num)
            )

    def test_last_point_is_stop_exactly(self):
        # fig3's fine grid: the fill formula alone would miss 0.999.
        step = (0.999 - 1e-3) / 3999
        assert 3999 * step + 1e-3 != 0.999
        assert linspace(1e-3, 0.999, 4000)[-1] == 0.999

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            linspace(0.0, 1.0, -1)


def thread_grid(max_threads, num):
    """The g sweep's grid, as ``estimate_g`` builds it."""
    return sorted({int(t) for t in geomspace(1, max_threads, num)})


def numpy_thread_grid(max_threads, num):
    """The grid ``estimate_g`` used to build with numpy."""
    return [
        int(t)
        for t in np.unique(np.geomspace(1, max_threads, num=num).astype(int))
    ]


class TestGeomspace:
    #: max_threads = int(2.5 * g) for HPU1 and HPU2, over the num_points
    #: of fig5 (fast/full), table2 (fast/full) and estimate_g's default.
    @pytest.mark.parametrize(
        "max_threads",
        sorted({int(2.5 * hpu.gpu_spec.g) for hpu in PLATFORMS.values()}),
    )
    @pytest.mark.parametrize("num", [16, 24, 48, 64])
    def test_thread_grids_in_use(self, max_threads, num):
        assert hexes(thread_grid(max_threads, num)) == hexes(
            numpy_thread_grid(max_threads, num)
        )

    def test_thread_grid_over_random_ranges(self):
        rnd = random.Random(14)
        for _ in range(3000):
            max_threads = rnd.choice(
                [
                    rnd.randint(2, 64),
                    rnd.randint(2, 20000),
                    rnd.randint(2, 10**7),
                ]
            )
            num = rnd.randint(2, 200)
            assert thread_grid(max_threads, num) == numpy_thread_grid(
                max_threads, num
            )

    def test_values_match_numpy(self):
        rnd = random.Random(15)
        for _ in range(2000):
            start = rnd.choice([1.0, rnd.uniform(1e-3, 1e3)])
            stop = rnd.uniform(1e-3, 1e7)
            num = rnd.randint(0, 200)
            ours = geomspace(start, stop, num)
            theirs = np.geomspace(start, stop, num=num).tolist()
            assert len(ours) == len(theirs)
            if num:
                # both endpoints are set exactly, as numpy sets them
                assert ours[0].hex() == float(theirs[0]).hex()
                assert ours[-1].hex() == float(theirs[-1]).hex()
            for a, b in zip(ours, theirs):
                assert math.isclose(a, b, rel_tol=1e-13)

    def test_nonpositive_endpoint_rejected(self):
        with pytest.raises(ValueError):
            geomspace(0.0, 10.0, 5)
        with pytest.raises(ValueError):
            geomspace(1.0, -10.0, 5)


class TestCalibrationMedian:
    """``statistics.median`` is ``np.median`` on the samples it reduces."""

    def test_random_lengths(self):
        rnd = random.Random(16)
        for _ in range(2000):
            values = [
                rnd.uniform(0.0, 1e6) for _ in range(rnd.randint(1, 80))
            ]
            assert statistics.median(values).hex() == float(
                np.median(values)
            ).hex()

    @pytest.mark.parametrize("fast", [True, False])
    def test_gamma_and_gcores_samples(self, fast):
        sizes = tuple(
            1 << e for e in (range(18, 25, 3) if fast else range(16, 25))
        )
        for hpu in PLATFORMS.values():
            cpu, gpu = hpu.make_devices()
            gamma = estimate_gamma(
                gpu, cpu, sizes=sizes, noise=MEASUREMENT_NOISE
            )
            ratios = [ratio for _, ratio in gamma.samples]
            assert gamma.gamma_inverse_estimate.hex() == float(
                np.median(ratios)
            ).hex()
            g = estimate_g(
                gpu, num_points=16 if fast else 48, noise=MEASUREMENT_NOISE
            )
            times = [time for _, time in g.samples]
            for tail in range(1, len(times) + 1):
                assert statistics.median(times[-tail:]).hex() == float(
                    np.median(times[-tail:])
                ).hex()
