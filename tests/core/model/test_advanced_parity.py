"""The list-based GPU curves of AdvancedModel equal the numpy ones.

The model's curves, grid scan and inversion used to be numpy array
code.  The oracle below is that array code, kept verbatim in spirit:
matrix ``cumsum`` curves, ``searchsorted`` inversion, the grid scan's
floor/clip interpolation and ``np.interp``.  Every registered
workload's ``--fast`` sizes (and its full ones) on both platforms must
give bit-identical results — the model's α* feeds every golden.
"""

import numpy as np
import pytest

from repro.core.model.advanced import AdvancedModel
from repro.core.schedule.advanced import AdvancedSchedule
from repro.errors import ReproError
from repro.hpu import HPU1, HPU2
from repro.util.grids import linspace
from repro.workloads import entries


def numpy_curves(model, alphas):
    """(G, V) matrices: row i is the curve at alphas[i], index j ascending."""
    ctx = model.ctx
    k = ctx.k
    g, gamma = ctx.params.g, ctx.params.gamma
    lt = np.array(ctx.level_tasks[::-1], dtype=float)
    lc = np.array(ctx.level_cost[::-1], dtype=float)
    shares = 1.0 - np.asarray(alphas, dtype=float)
    gbuf = np.empty((len(shares), k + 1))
    vbuf = np.empty((len(shares), k + 1))
    leaf_tasks = shares * ctx.num_leaves
    gbuf[:, 0] = np.maximum(leaf_tasks / g, 1.0) * ctx.leaf_cost / gamma
    vbuf[:, 0] = leaf_tasks * ctx.leaf_cost
    tasks = shares[:, None] * lt
    gbuf[:, 1:] = np.maximum(tasks / g, 1.0) * lc / gamma
    vbuf[:, 1:] = tasks * lc
    return np.cumsum(gbuf, axis=1)[:, ::-1], np.cumsum(vbuf, axis=1)[:, ::-1]


def numpy_grid_works(model, alphas):
    """The former vectorized ``_works_on_grid``."""
    k = model.ctx.k
    alphas = np.asarray(alphas, dtype=float)
    Gm, Vm = numpy_curves(model, alphas)
    targets = np.array([model.tc(float(a)) for a in alphas])
    works = np.empty(len(alphas))
    Gk = Gm[:, k]
    leaf = targets <= Gk
    works[leaf] = Vm[leaf, k] * targets[leaf] / Gk[leaf]
    rest = np.nonzero(~leaf)[0]
    if len(rest):
        Gr, Vr, tr = Gm[rest], Vm[rest], targets[rest]
        j = np.count_nonzero(Gr >= tr[:, None], axis=1) - 1
        np.clip(j, 0, k - 1, out=j)
        rows = np.arange(len(rest))
        g_hi, g_lo = Gr[rows, j], Gr[rows, j + 1]
        ys = j + (g_hi - tr) / (g_hi - g_lo)
        ys[tr >= Gr[:, 0]] = 0.0
        jj = np.floor(ys).astype(np.int64)
        np.clip(jj, 0, k - 1, out=jj)
        v_lo = Vr[rows, jj]
        works[rest] = (Vr[rows, jj + 1] - v_lo) / 1.0 * (ys - jj) + v_lo
    return works


def numpy_scalar(model, alpha):
    """The former scalar ``solve_y`` and ``gpu_work`` (searchsorted,
    np.interp)."""
    k = model.ctx.k
    Gm, Vm = numpy_curves(model, [alpha])
    G, V = Gm[0], Vm[0]
    target = model.tc(alpha)
    if target >= G[0]:
        y = 0.0
    elif target <= G[k]:
        y = float(k)
    else:
        j = int(np.searchsorted(-G, -target, side="right")) - 1
        j = min(max(j, 0), k - 1)
        y = float(j + (G[j] - target) / (G[j] - G[j + 1]))
    if target <= G[k]:
        work = V[k] * target / G[k]
    else:
        work = float(np.interp(y, np.arange(k + 1, dtype=float), V))
    return y, float(work)


def contexts():
    for entry in entries():
        sizes = sorted(set(entry.default_sizes(True)) | set(entry.default_sizes(False)))
        for n in sizes:
            for hpu in (HPU1, HPU2):
                try:
                    ctx = AdvancedSchedule._context(
                        entry.workload(n), hpu.parameters
                    )
                    model = AdvancedModel(ctx)
                except ReproError:
                    continue
                if model.alpha_min() < 1.0:
                    yield f"{entry.workload_id}-{n}-{hpu.name}", model


CASES = list(contexts())


def hexes(values):
    return [float(v).hex() for v in values]


def test_every_registered_workload_is_covered():
    assert {name.split("-")[0] for name, _ in CASES} == {
        entry.workload_id for entry in entries()
    }


@pytest.mark.parametrize("name,model", CASES, ids=[c[0] for c in CASES])
def test_grid_scan_matches_numpy(name, model):
    alphas = linspace(model.alpha_min(), 1.0, 512)
    assert hexes(alphas) == hexes(np.linspace(model.alpha_min(), 1.0, 512))
    assert hexes(model._works_on_grid(alphas)) == hexes(
        numpy_grid_works(model, alphas)
    )


@pytest.mark.parametrize("name,model", CASES, ids=[c[0] for c in CASES])
def test_curves_and_scalar_path_match_numpy(name, model):
    for alpha in linspace(model.alpha_min(), 1.0, 97):
        G, V = model._gpu_curves(alpha)
        Gm, Vm = numpy_curves(model, [alpha])
        assert hexes(G) == hexes(Gm[0]) and hexes(V) == hexes(Vm[0])
        y, work = numpy_scalar(model, alpha)
        assert model.solve_y(alpha).hex() == y.hex()
        assert float(model.gpu_work(alpha)).hex() == work.hex()
