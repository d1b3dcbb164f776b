"""Pinned conformance band for the fig8 ``--fast`` sweep.

The oracle's committed numbers live here: the full traced fig8 fast
sweep (both platforms, the whole (n, α) grid — 588 checked runs) must
stay inside the mean-relative-residual band and under the optimism
tolerance.  A drift of the executor, the cost models or the analytical
backend moves these aggregates long before a golden table flips, so
this is the early-warning tripwire the ISSUE asks for.

The aggregates are fully deterministic (keyed measurement noise, fixed
grids, order-independent reduction), so the assertions can be tight.
The sweep runs on the unpruned reference search: the tuner skips the
points that cannot win, and how many it skips is no property of the
model, so the pinned population is every point the search visits.
"""

import pytest

from repro.core.model.oracle import (
    DEFAULT_RESIDUAL_BAND,
    OPTIMISM_TOLERANCE,
    conformance_from_attrs,
)
from repro.experiments import fig8_speedup_vs_n
from repro.obs.tracer import Tracer, deactivate, tracing
from tests.reference_search import unpruned_tuners


@pytest.fixture(autouse=True)
def _clean_tracer_state():
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def fig8_conformance():
    from repro.experiments import common

    # A warm autotune cache from earlier test files would skip
    # evaluation runs and shrink the pinned check count — start cold.
    common._TUNERS.clear()
    deactivate()
    with unpruned_tuners(), tracing(Tracer()) as tr:
        fig8_speedup_vs_n.run(fast=True)
    common._TUNERS.clear()
    return conformance_from_attrs(
        (record.label, record.attrs) for record in tr.runs
    )


class TestFig8FastBand:
    def test_every_point_checked(self, fig8_conformance):
        # 2 platforms × 3 sizes × (advanced grid + extras); the count is
        # pinned so silently skipped runs cannot pass unnoticed.
        assert fig8_conformance["checks"] == 588

    def test_verdict_ok(self, fig8_conformance):
        assert fig8_conformance["verdict"] == "ok"

    def test_mean_residual_inside_committed_band(self, fig8_conformance):
        mean = fig8_conformance["mean_rel_residual"]
        assert mean <= DEFAULT_RESIDUAL_BAND
        # The measured value is ≈0.443; a collapse toward 0 would mean
        # the simulator stopped charging transfers/overheads, which is
        # as much a conformance break as drifting out the top.
        assert 0.30 <= mean <= 0.55

    def test_no_optimistic_predictions_beyond_noise(self, fig8_conformance):
        assert (
            fig8_conformance["max_signed_rel_residual"]
            <= OPTIMISM_TOLERANCE
        )

    def test_worst_point_is_transfer_dominated_small_n(
        self, fig8_conformance
    ):
        # The worst residual must stay where the model predicts it: the
        # smallest grid size, where the fixed λ per transfer dominates
        # the predicted time (the left edge of Fig. 8).
        worst = fig8_conformance["worst"]
        assert worst["n"] == 1024
        assert worst["strategy"] == "advanced"
        assert worst["residual_rel"] < 1.0  # measured slower, never 0
