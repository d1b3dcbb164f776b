"""Tests for the advanced work-division analysis — numeric backend,
closed forms, and their agreement, anchored on the paper's §5.2.2
worked example (HPU1 parameters, mergesort, n = 2^24)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import AdvancedModel, ClosedFormModel, ModelContext
from repro.core.model.advanced import _fminbound
from repro.errors import ModelError
from repro.hpu.hpu import HPUParameters

HPU1_PARAMS = HPUParameters(p=4, g=2**12, gamma=1 / 160)


def mergesort_ctx(n=2**24, params=HPU1_PARAMS):
    return ModelContext(a=2, b=2, n=n, f=lambda m: m, params=params)


class TestPaperWorkedExample:
    """§5.2.2: a=b=2, f(n)=Θ(n), p=4, g=2^12, γ=1/160, n=2^24
    => α* ≈ 0.16, GPU does ≈52% of the work, y ≈ 10."""

    def test_closed_form_alpha_star(self):
        cf = ClosedFormModel(mergesort_ctx())
        alphas = np.linspace(1e-4, 0.999, 5000)
        best = max(alphas, key=cf.gpu_work)
        assert best == pytest.approx(0.16, abs=0.01)

    def test_closed_form_gpu_share(self):
        cf = ClosedFormModel(mergesort_ctx())
        share = cf.gpu_work(0.16) / cf.total_work()
        assert share == pytest.approx(0.52, abs=0.01)

    def test_closed_form_transfer_level(self):
        cf = ClosedFormModel(mergesort_ctx())
        # paper reports "approximately 10"
        assert cf.solve_y(0.16) == pytest.approx(10.0, abs=0.7)

    def test_numeric_backend_matches_example(self):
        sol = AdvancedModel(mergesort_ctx()).optimize()
        assert sol.alpha == pytest.approx(0.16, abs=0.02)
        assert sol.gpu_share == pytest.approx(0.52, abs=0.01)
        assert sol.y == pytest.approx(10.0, abs=1.0)

    def test_gpu_saturated_and_unsaturated_at_optimum(self):
        """Paper: since log2 g = 12 and y* ≈ 10 < 12, the GPU passes
        through both regimes — case (iii) is the active one."""
        ctx = mergesort_ctx()
        cf = ClosedFormModel(ctx)
        y = cf.solve_y(0.16)
        sat_level = np.log2(ctx.params.g / 0.84)
        assert y < sat_level  # stops above the saturation boundary


class TestNumericAgainstClosedForm:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.16, 0.25, 0.4, 0.6])
    def test_tc_matches(self, alpha):
        ctx = mergesort_ctx()
        num, cf = AdvancedModel(ctx), ClosedFormModel(ctx)
        assert num.tc(alpha) == pytest.approx(cf.tc(alpha), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.16, 0.25, 0.4, 0.6])
    def test_y_matches_within_discretization(self, alpha):
        ctx = mergesort_ctx()
        num, cf = AdvancedModel(ctx), ClosedFormModel(ctx)
        assert num.solve_y(alpha) == pytest.approx(cf.solve_y(alpha), abs=0.35)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.16, 0.25, 0.4])
    def test_gpu_work_matches(self, alpha):
        ctx = mergesort_ctx()
        num, cf = AdvancedModel(ctx), ClosedFormModel(ctx)
        assert num.gpu_work(alpha) == pytest.approx(cf.gpu_work(alpha), rel=0.02)

    @pytest.mark.parametrize("n_exp", [14, 18, 22])
    def test_agreement_across_sizes(self, n_exp):
        ctx = mergesort_ctx(n=2**n_exp)
        num, cf = AdvancedModel(ctx), ClosedFormModel(ctx)
        for alpha in (0.1, 0.2, 0.5):
            assert num.gpu_work(alpha) == pytest.approx(
                cf.gpu_work(alpha), rel=0.03
            )


class TestAdvancedModelProperties:
    def test_tc_increasing_in_alpha(self):
        model = AdvancedModel(mergesort_ctx())
        alphas = np.linspace(0.01, 0.9, 30)
        tcs = [model.tc(float(al)) for al in alphas]
        assert all(t1 < t2 for t1, t2 in zip(tcs, tcs[1:]))

    def test_y_decreasing_in_alpha(self):
        """More CPU share -> longer bottom phase -> GPU climbs higher."""
        model = AdvancedModel(mergesort_ctx())
        alphas = np.linspace(0.02, 0.9, 30)
        ys = [model.solve_y(float(al)) for al in alphas]
        assert all(y1 >= y2 - 1e-9 for y1, y2 in zip(ys, ys[1:]))

    def test_gpu_work_vanishes_at_extremes(self):
        model = AdvancedModel(mergesort_ctx())
        tiny = model.gpu_work(model.alpha_min())
        peak = model.optimize().gpu_work
        near_one = model.gpu_work(0.9999)
        assert tiny < peak
        assert near_one < peak

    def test_solution_fields_consistent(self):
        model = AdvancedModel(mergesort_ctx())
        sol = model.solution_at(0.16)
        assert sol.tc == pytest.approx(model.tc(0.16))
        assert sol.y == pytest.approx(model.solve_y(0.16))
        assert 0 < sol.gpu_share < 1

    def test_alpha_validation(self):
        model = AdvancedModel(mergesort_ctx())
        with pytest.raises(ModelError):
            model.tc(0.0)
        with pytest.raises(ModelError):
            model.tc(1.5)
        with pytest.raises(ModelError):
            model.tc(model.alpha_min() / 10)

    def test_requires_gpu_beats_cpu(self):
        weak = HPUParameters(p=16, g=16, gamma=0.5)  # γ·g = 8 < p
        with pytest.raises(ModelError, match="γ·g > p"):
            AdvancedModel(
                ModelContext(a=2, b=2, n=1 << 10, f=lambda m: m, params=weak)
            )

    def test_small_tree_degenerates_gracefully(self):
        ctx = mergesort_ctx(n=8)  # fewer leaves than useful
        sol = AdvancedModel(ctx).optimize()
        assert 0 < sol.alpha <= 1.0

    @given(st.floats(min_value=0.01, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_tg_equals_tc_at_solution(self, alpha):
        """The defining equation: the GPU curve at y(α) equals T_c(α)."""
        model = AdvancedModel(mergesort_ctx(n=2**18))
        y = model.solve_y(alpha)
        G, _ = model._gpu_curves(alpha)
        interp = float(np.interp(y, np.arange(model.ctx.k + 1), G))
        tc = model.tc(alpha)
        if 0.0 < y < model.ctx.k:  # interior solution: exact equality
            assert interp == pytest.approx(tc, rel=1e-6)
        elif y == 0.0:  # GPU finished everything early
            assert G[0] <= tc * (1 + 1e-9)

    def test_sweep_returns_solutions(self):
        model = AdvancedModel(mergesort_ctx(n=2**16))
        sols = model.sweep([0.1, 0.2, 0.3])
        assert [s.alpha for s in sols] == [0.1, 0.2, 0.3]


HPU2_PARAMS = HPUParameters(p=4, g=1200, gamma=1 / 65)
PIN_PARAMS = {"HPU1": HPU1_PARAMS, "HPU2": HPU2_PARAMS}
PIN_COSTS = {
    "1": lambda m: 1.0,
    "n": lambda m: m,
    "nlogn": lambda m: m * math.log2(m),
}

# optimize() -> (alpha, y, tc, gpu_work) as float.hex, recorded with the
# SciPy minimize_scalar(method="bounded") polish that _fminbound replaces.
OPTIMIZE_PINS = [
    (
        "worked-example", 2, 2, 2**24, "n", "HPU1",
        "0x1.638c656b6eaa8p-3", "0x1.28ac6d00f31a7p+3",
        "0x1.c6f76b18a983bp+23", "0x1.9ff1f540a4498p+27",
    ),
    (
        "hpu2-mergesort", 2, 2, 2**24, "n", "HPU2",
        "0x1.9f2a99b0ae328p-3", "0x1.000002ce69235p+3",
        "0x1.0c8767ff7275bp+24", "0x1.b1b8acf04b16dp+27",
    ),
    (
        "a2-f1-hpu1", 2, 2, 2**20, "1", "HPU1",
        "0x1.1572723b68eddp-3", "0x1.40023ab9d2100p+3",
        "0x1.15716ce2efc8ep+16", "0x1.ba6c0b29e6893p+20",
    ),
    (
        "a2-nlogn-hpu1", 2, 2, 2**22, "nlogn", "HPU1",
        "0x1.a681c0638a6b7p-3", "0x1.1ffffed7daf23p+3",
        "0x1.13a3458878c61p+25", "0x1.2414b1097346cp+28",
    ),
    (
        "a2-n-hpu2-small", 2, 2, 2**16, "n", "HPU2",
        "0x1.bedcaa603a416p-3", "0x1.ffffff40645f6p+2",
        "0x1.6597aecc304d9p+15", "0x1.c251f0aabc74cp+18",
    ),
    (
        "a3-n-hpu1", 3, 3, 3**12, "n", "HPU1",
        "0x1.6d0fae08cf6aap-3", "0x1.80000e1d456b6p+2",
        "0x1.d6574abfb55f1p+17", "0x1.752a53e68d90ap+21",
    ),
    (
        "a3-nlogn-hpu1", 3, 3, 3**14, "nlogn", "HPU1",
        "0x1.63762f26bc66dp-3", "0x1.7fffff694050fp+2",
        "0x1.571e6721f39c7p+24", "0x1.b5ba111b3d08ep+27",
    ),
    (
        "a3-f1-hpu2", 3, 3, 3**13, "1", "HPU2",
        "0x1.6cc280356fe4bp-3", "0x1.8000945c845e8p+2",
        "0x1.9ff383fb136a6p+16", "0x1.dfcc0b346588fp+20",
    ),
    (
        "a4-n-hpu1", 4, 2, 2**20, "n", "HPU1",
        "0x1.14c4b2ca63c34p-3", "0x1.3f9ae2fac0000p+2",
        "0x1.14c480d7d8f9fp+36", "0x1.bacd19dc5f598p+40",
    ),
    (
        "a4-f1-hpu2", 4, 4, 4**10, "1", "HPU2",
        "0x1.6cbc39ab9f93ap-3", "0x1.3fde64f540762p+2",
        "0x1.e64f7a1583982p+15", "0x1.1879c9ebb89b4p+20",
    ),
    (
        "a4-nlogn-hpu2", 4, 2, 2**18, "nlogn", "HPU2",
        "0x1.6ca15ce9b99c8p-3", "0x1.3ffe5d621cb1dp+2",
        "0x1.117137b8fb898p+33", "0x1.3b706de4ef9a0p+37",
    ),
    (
        "degenerate", 2, 2, 2**2, "n", "HPU1",
        "0x1.0000000000000p+0", "0x1.0000000000000p+1",
        "0x1.0000000000000p+0", "0x0.0p+0",
    ),
]


class TestOptimizeBitExact:
    """The in-module Brent polish reproduces the former SciPy result to
    the last bit; every golden downstream of α* depends on it."""

    @pytest.mark.parametrize(
        "name,a,b,n,f,hpu,alpha,y,tc,gpu_work",
        OPTIMIZE_PINS,
        ids=[pin[0] for pin in OPTIMIZE_PINS],
    )
    def test_pinned(self, name, a, b, n, f, hpu, alpha, y, tc, gpu_work):
        ctx = ModelContext(a=a, b=b, n=n, f=PIN_COSTS[f], params=PIN_PARAMS[hpu])
        sol = AdvancedModel(ctx).optimize()
        got = [float(v).hex() for v in (sol.alpha, sol.y, sol.tc, sol.gpu_work)]
        assert got == [alpha, y, tc, gpu_work]


class TestFminbound:
    def test_interior_quadratic(self):
        x, fx = _fminbound(lambda t: (t - 0.3) ** 2 + 2.0, 0.0, 1.0, xatol=1e-8)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == (x - 0.3) ** 2 + 2.0

    @pytest.mark.parametrize("slope,edge", [(1.0, 0.0), (-1.0, 1.0)])
    def test_minimum_at_bracket_edge(self, slope, edge):
        x, fx = _fminbound(lambda t: slope * t, 0.0, 1.0, xatol=1e-6)
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(edge, abs=1e-5)
        assert fx == slope * x

    def test_flat_function(self):
        calls = []

        def flat(t):
            calls.append(t)
            return 7.0

        x, fx = _fminbound(flat, 2.0, 3.0, xatol=1e-6)
        assert 2.0 <= x <= 3.0
        assert fx == 7.0
        assert len(calls) < 500

    def test_maxfun_exhaustion(self):
        calls = []

        def f(t):
            calls.append(t)
            return (t - 0.123) ** 2

        x, fx = _fminbound(f, 0.0, 1.0, xatol=1e-12, maxfun=5)
        assert len(calls) == 5
        assert fx == min((t - 0.123) ** 2 for t in calls)
        assert x in calls


class TestClosedFormValidation:
    def test_rejects_unbalanced_f(self):
        ctx = ModelContext(
            a=2, b=2, n=1 << 10, f=lambda m: m * m, params=HPU1_PARAMS
        )
        with pytest.raises(ModelError, match="n\\^\\{log_b a\\}"):
            ClosedFormModel(ctx)

    def test_rejects_non_unit_leaf(self):
        ctx = ModelContext(
            a=2, b=2, n=1 << 10, f=lambda m: m, params=HPU1_PARAMS, leaf_cost=2.0
        )
        with pytest.raises(ModelError, match="leaf_cost"):
            ClosedFormModel(ctx)

    def test_alpha_domain(self):
        cf = ClosedFormModel(mergesort_ctx())
        with pytest.raises(ModelError):
            cf.tc(1.0)

    def test_tg_piecewise_continuous_at_case_boundary(self):
        """T_g cases (ii) and (iii) agree at y = log_a(g/(1-α))."""
        ctx = mergesort_ctx()
        cf = ClosedFormModel(ctx)
        alpha = 0.16
        boundary = np.log2(ctx.params.g / (1 - alpha))
        below = cf.tg(alpha, boundary - 1e-6)
        above = cf.tg(alpha, boundary + 1e-6)
        assert below == pytest.approx(above, rel=1e-4)
