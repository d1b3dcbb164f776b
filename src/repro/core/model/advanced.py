"""Numeric backend for the advanced work-division analysis (§5.2).

The analysis pictures a *bottom-up* execution (Figure 2): after the
split level, the CPU owns an ``α`` fraction of the subproblems and the
GPU the remaining ``1 − α``.  Both race upward from the leaves; the
CPU stays saturated until its fraction narrows to ``p`` subproblems at
level ``L = log_a(p/α)`` — taking time ``T_c(α)`` — and the GPU climbs
as far as it can in exactly that time, reaching level ``y(α)``.  The
fraction ``α*`` maximizes the work ``W_g`` the GPU completes.

Instead of enumerating the paper's three saturation cases we build the
GPU's cumulative time curve ``G(j)`` level by level — each level is
individually charged its saturated or unsaturated duration — and invert
the piecewise-linear curve.  The case structure emerges; the closed
forms of §5.2.2 (see :mod:`repro.core.model.closedform`) agree with
this backend on the balanced family, which the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.core.model.context import ModelContext
from repro.errors import ModelError
from repro.util.grids import linspace
from repro.util.intmath import log_base


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(
    func: Callable[[float], float],
    a: float,
    b: float,
    xatol: float,
    maxfun: int = 500,
) -> Tuple[float, float]:
    """Minimize ``func`` on ``[a, b]``; return ``(x, func(x))``.

    Brent's bounded method, ported line for line from SciPy's
    ``_minimize_scalar_bounded`` (the ``method="bounded"`` backend of
    ``minimize_scalar``).  Only the numpy scalar helpers are swapped for
    their stdlib equivalents, so every iterate — and therefore the
    returned pair — is bit-identical to SciPy's.  Stops after
    ``maxfun`` evaluations even if ``xatol`` is not yet met.
    """
    a, b = float(a), float(b)
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (1.0 if xm - xf >= 0 else -1.0)
            else:
                golden = True

        if golden:  # golden-section step
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf, fx


def _interp_unit_grid(x: float, fp: Sequence[float]) -> float:
    """``np.interp(x, [0, 1, ..., k], fp)`` for ``0 <= x <= k``.

    numpy's rules on a unit-spaced grid: an exact grid hit (and the
    right edge) returns that point's value; otherwise the segment
    ``j = floor(x)`` gives ``(fp[j+1] - fp[j]) * (x - j) + fp[j]``.
    """
    j = int(x)
    if j >= len(fp) - 1:
        return fp[-1]
    if j == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) * (x - j) + fp[j]


@dataclass(frozen=True)
class AdvancedSolution:
    """An optimized advanced-schedule operating point."""

    alpha: float  # CPU fraction of subproblems
    y: float  # level (from the top) the GPU reaches
    tc: float  # duration of the concurrent bottom phase
    gpu_work: float  # ops completed by the GPU in that phase
    gpu_share: float  # gpu_work / total sequential work
    saturated_at_y: bool  # was the GPU saturated when it stopped?


class AdvancedModel:
    """Evaluate T_c, y(α) and W_g(α) for one (algorithm, n, HPU)."""

    def __init__(self, ctx: ModelContext) -> None:
        self.ctx = ctx
        if not ctx.params.gpu_beats_cpu:
            raise ModelError(
                "the advanced analysis assumes γ·g > p (§3.2); got "
                f"γ·g = {ctx.params.gpu_throughput:.3g} <= p = {ctx.params.p}"
            )
        # Lazily-built per-context arrays (level tasks/cost in the
        # descending evaluation order, prefix sums of level work) plus
        # single-slot per-α caches: optimize() evaluates the curves at
        # hundreds of α values and solution_at() revisits the winning α
        # three times — all on identical inputs.
        self._desc = None
        self._tc_cache: Tuple[float, float] = (float("nan"), 0.0)
        self._curve_cache = (float("nan"), None, None)

    def _arrays(self):
        """(tasks, cost, work-prefix) lists in descending-level order.

        Index ``m`` of the first two corresponds to level ``j = k-1-m``
        (the order both :meth:`tc` and :meth:`_gpu_curves` walk levels);
        ``acc[m]`` is the leaf work plus the work of the ``m`` highest
        levels, accumulated left to right exactly like the scalar loop.
        """
        cached = self._desc
        if cached is None:
            ctx = self.ctx
            lt = [float(t) for t in reversed(ctx.level_tasks)]
            lc = [float(c) for c in reversed(ctx.level_cost)]
            total = float(ctx.num_leaves * ctx.leaf_cost)
            acc = [total]
            for t, c in zip(lt, lc):
                total += t * c
                acc.append(total)
            cached = self._desc = (lt, lc, acc)
        return cached

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def alpha_min(self) -> float:
        """Smallest admissible α: the CPU must start with ≥ p leaves."""
        return min(1.0, self.ctx.params.p / self.ctx.num_leaves)

    def cpu_stop_level(self, alpha: float) -> float:
        """``L = log_a(p/α)``: where the CPU fraction narrows to p tasks."""
        self._check_alpha(alpha)
        level = log_base(self.ctx.params.p / alpha, self.ctx.a)
        return min(max(level, 0.0), float(self.ctx.k))

    def tc(self, alpha: float) -> float:
        """Time for the CPU to climb from the leaves to ``L`` (§5.2.1).

        ``(α/p) · (leaf work + Σ_{i≥L} a^i f(n/b^i))``, with the
        partial topmost level interpolated linearly.  Evaluated from
        the precomputed work prefix sums: the full levels ``k-1 .. ⌈L⌉``
        are ``acc[k - ⌈L⌉]`` (same additions, same order as the scalar
        descending loop), and the one partial level below contributes
        its ``⌈L⌉ - L`` fraction last — bit-equal to summing level by
        level.
        """
        self._check_alpha(alpha)
        cached = self._tc_cache
        if cached[0] == alpha:
            return cached[1]
        ctx = self.ctx
        L = self.cpu_stop_level(alpha)
        k = ctx.k
        lt, lc, acc = self._arrays()
        ceil_L = math.ceil(L)
        total = acc[k - ceil_L]
        if ceil_L >= 1:
            # partial level j = ⌈L⌉ - 1 (index k - ⌈L⌉ in descending
            # order): fraction (j + 1 - L); zero when L is integral,
            # matching the scalar loop's explicit `work * 0.0` add.
            m = k - ceil_L
            total = total + lt[m] * lc[m] * (ceil_L - L)
        value = float(alpha * total / ctx.params.p)
        self._tc_cache = (alpha, value)
        return value

    # ------------------------------------------------------------------
    # GPU side
    # ------------------------------------------------------------------
    def _gpu_curves(self, alpha: float) -> Tuple[List[float], List[float]]:
        """Cumulative bottom-up GPU (time, work) at integer stop levels.

        Returns lists ``G`` and ``V`` of length ``k + 1`` where index
        ``j`` is the time/work for the GPU to execute the leaves plus
        all internal levels ``i >= j`` of its ``1 − α`` fraction.
        ``G[k]`` is the leaf batch alone; ``G[0]`` the whole subtree.
        """
        cached = self._curve_cache
        if cached[0] == alpha:
            return cached[1], cached[2]
        ctx = self.ctx
        share = 1.0 - alpha
        g, gamma = ctx.params.g, ctx.params.gamma
        lt, lc, _ = self._arrays()  # descending order: j = k-1 .. 0
        leaf_tasks = share * ctx.num_leaves
        # Accumulate bottom-up (leaf term first, then levels k-1 .. 0)
        # and flip, so index j reads ascending.
        g_run = max(leaf_tasks / g, 1.0) * ctx.leaf_cost / gamma
        v_run = leaf_tasks * ctx.leaf_cost
        G = [g_run]
        V = [v_run]
        for t, c in zip(lt, lc):
            tasks = share * t
            g_run += max(tasks / g, 1.0) * c / gamma
            v_run += tasks * c
            G.append(g_run)
            V.append(v_run)
        G.reverse()
        V.reverse()
        self._curve_cache = (alpha, G, V)
        return G, V

    def solve_y(self, alpha: float) -> float:
        """The level the GPU reaches in time ``T_c(α)`` (solves Tg = Tc)."""
        self._check_alpha(alpha)
        target = self.tc(alpha)
        G, _ = self._gpu_curves(alpha)
        return self._invert_curve(G, target)

    def gpu_work(self, alpha: float) -> float:
        """``W_g(α)``: ops the GPU completes during the bottom phase."""
        self._check_alpha(alpha)
        target = self.tc(alpha)
        G, V = self._gpu_curves(alpha)
        k = self.ctx.k
        if target <= G[k]:
            # GPU cannot even finish its leaf batch in time; it completes
            # a proportional share of it.
            return V[k] * target / G[k]
        return _interp_unit_grid(self._invert_curve(G, target), V)

    def _works_on_grid(self, alphas: Sequence[float]) -> List[float]:
        """:meth:`gpu_work` across a grid of α, one bottom-up walk each.

        Computes ``T_c(α)`` first (the arithmetic of :meth:`tc`, with
        :meth:`cpu_stop_level` inlined), then climbs the GPU curve of
        :meth:`_gpu_curves` from the leaf batch only until it reaches
        ``T_c``: the partial sums are the same additions in the same
        order, so every visited point equals the full curve's, and a
        scan of 512 α costs what the array version did.  The bracketing
        segment is the deepest level with ``G >= T_c``.  ``y`` is then
        interpolated by the grid scan's floor/clip rule, which differs
        from :meth:`gpu_work`'s ``np.interp`` rule where ``y`` rounds up
        to the segment's upper end: there the work is read at that
        point, or at the last segment extrapolated from the one below.
        The pinned ``optimize()`` results depend on that rule.  Callers
        guarantee every α is admissible; the extremes are validated.
        """
        if not alphas:
            return []
        self._check_alpha(min(alphas))
        self._check_alpha(max(alphas))
        ctx = self.ctx
        k = ctx.k
        p, g, gamma = ctx.params.p, ctx.params.g, ctx.params.gamma
        log, ceil = math.log, math.ceil
        log_a = log(ctx.a)
        k_float = float(k)
        lt, lc, acc = self._arrays()
        level_work = [t * c for t, c in zip(lt, lc)]
        levels = [(k - 1 - m, lt[m], lc[m]) for m in range(k)]
        num_leaves, leaf_cost = ctx.num_leaves, ctx.leaf_cost
        works = []
        append = works.append
        for alpha in alphas:
            # T_c(alpha): cpu_stop_level() and tc() inlined (their
            # min/max as comparisons, same results).
            L = log(p / alpha) / log_a
            if L < 0.0:
                L = 0.0
            elif L > k_float:
                L = k_float
            ceil_L = ceil(L)
            m = k - ceil_L
            target = acc[m]
            if ceil_L >= 1:
                target = target + level_work[m] * (ceil_L - L)
            target = alpha * target / p
            # The GPU curve from the leaf batch up, until it reaches T_c.
            share = 1.0 - alpha
            leaf_tasks = share * num_leaves
            q = leaf_tasks / g
            if q < 1.0:
                q = 1.0
            g_lo = q * leaf_cost / gamma
            v_lo = leaf_tasks * leaf_cost
            if target <= g_lo:
                append(v_lo * target / g_lo)
                continue
            for j, t, c in levels:
                tasks = share * t
                q = tasks / g
                if q < 1.0:
                    q = 1.0
                g_hi = g_lo + q * c / gamma
                if g_hi >= target:
                    v_hi = v_lo + tasks * c
                    break
                g_lo = g_hi
                v_lo += tasks * c
            else:
                # T_c > G(0): the GPU finishes its whole subtree (y = 0).
                append(v_lo)
                continue
            y = j + (g_hi - target) / (g_hi - g_lo)
            if y >= j + 1 and j + 1 <= k - 1:
                append(v_lo)  # y rounded onto the next grid point
            else:
                append((v_lo - v_hi) * (y - j) + v_hi)
        return works

    def saturated_at(self, alpha: float, y: float) -> bool:
        """Whether the GPU is saturated at (real) level ``y``."""
        level = min(int(math.floor(y)), self.ctx.k - 1)
        tasks = (1.0 - alpha) * self.ctx.level_tasks[max(level, 0)]
        return tasks >= self.ctx.params.g

    # ------------------------------------------------------------------
    def _invert_curve(self, G: Sequence[float], target: float) -> float:
        """Solve ``G(y) = target`` on the piecewise-linear decreasing G."""
        k = self.ctx.k
        if target >= G[0]:
            return 0.0
        if target <= G[k]:
            return float(k)
        # G is decreasing in j; the bracketing segment starts at the
        # deepest level whose time still reaches the target.
        j = 0
        while j < k - 1 and G[j + 1] >= target:
            j += 1
        g_hi, g_lo = G[j], G[j + 1]
        if g_hi == g_lo:  # pragma: no cover - levels always cost > 0
            return float(j)
        frac = (g_hi - target) / (g_hi - g_lo)
        return float(j + frac)

    def _check_alpha(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ModelError(f"alpha must be in (0, 1], got {alpha!r}")
        if alpha < self.alpha_min() - 1e-12:
            raise ModelError(
                f"alpha={alpha!r} leaves the CPU fewer than p="
                f"{self.ctx.params.p} leaf tasks (alpha_min="
                f"{self.alpha_min():.3g})"
            )

    # ------------------------------------------------------------------
    # optimization (§5.2.1: maximize W_g over α)
    # ------------------------------------------------------------------
    def optimize(self, grid: int = 512) -> AdvancedSolution:
        """Find ``α*`` maximizing the GPU work ``W_g(α)``.

        A dense deterministic grid scan locates the basin (W_g is
        piecewise smooth but kinked where the active saturation case
        changes), then :func:`_fminbound` — an in-module port of
        SciPy's bounded Brent minimizer — polishes ``α*`` inside the
        two grid cells around the best grid point.
        """
        lo = self.alpha_min()
        hi = 1.0
        if lo >= hi:
            # Degenerate: fewer leaves than CPU cores; nothing to offload.
            return self.solution_at(1.0)
        alphas = linspace(lo, hi, grid)
        works = self._works_on_grid(alphas)
        best = max(range(grid), key=works.__getitem__)
        bracket_lo = alphas[max(best - 1, 0)]
        bracket_hi = alphas[min(best + 1, grid - 1)]
        alpha_star, neg_work = _fminbound(
            lambda al: -self.gpu_work(al), bracket_lo, bracket_hi, xatol=1e-6
        )
        if -neg_work < works[best]:  # polish made it worse: keep grid point
            alpha_star = alphas[best]
        return self.solution_at(alpha_star)

    def solution_at(self, alpha: float) -> AdvancedSolution:
        """Assemble the full solution record at a given α."""
        y = self.solve_y(alpha)
        wg = self.gpu_work(alpha)
        return AdvancedSolution(
            alpha=alpha,
            y=y,
            tc=self.tc(alpha),
            gpu_work=wg,
            gpu_share=wg / self.ctx.total_work(),
            saturated_at_y=self.saturated_at(alpha, y),
        )

    # ------------------------------------------------------------------
    # sweep helpers (Figure 3)
    # ------------------------------------------------------------------
    def sweep(self, alphas: List[float]) -> List[AdvancedSolution]:
        """Evaluate the model across a list of α values."""
        return [self.solution_at(float(al)) for al in alphas]
