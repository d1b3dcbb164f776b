"""The stdlib grid helpers reproduce numpy's grids bit for bit.

Every α grid that feeds a golden output used to be a numpy array, so
each helper is checked against the numpy function it replaces over
many seeded inputs, compared as ``float.hex``.
"""

import random

import numpy as np
import pytest

from repro.util.grids import arange, linspace, round_all, round_decimals


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
