"""The zero-fault bit-identity contract.

A resilience config over an empty fault plan must be invisible: same
result dataclass (every field, exactly), same busy traces, same metrics
— whether the config is passed explicitly or picked up from an
installed session.  This is the resilience twin of the tracing
equivalence suite in ``tests/obs/test_equivalence.py``.
"""

import pytest

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.schedule import (
    AdvancedSchedule,
    BasicSchedule,
    ScheduleExecutor,
)
from repro.hpu import PLATFORMS
from repro.obs.tracer import Tracer, deactivate, tracing
from repro.resilience import ResilienceConfig, resilient, uninstall

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean_state():
    uninstall()
    deactivate()
    yield
    uninstall()
    deactivate()


def run_advanced(hpu_name, n, fast, resilience=None, macro=None):
    hpu = PLATFORMS[hpu_name]
    workload = make_mergesort_workload(n)
    executor = ScheduleExecutor(
        hpu, workload, fast=fast, resilience=resilience, macro=macro
    )
    plan = AdvancedSchedule().plan(workload, hpu.parameters)
    return executor.run_advanced(plan)


def run_basic(hpu_name, n, resilience=None):
    hpu = PLATFORMS[hpu_name]
    workload = make_mergesort_workload(n)
    executor = ScheduleExecutor(hpu, workload, resilience=resilience)
    return executor.run_basic(BasicSchedule().plan(workload, hpu.parameters))


@pytest.mark.parametrize("hpu_name", sorted(PLATFORMS))
@pytest.mark.parametrize("fast", [True, False])
def test_advanced_identical_with_empty_config(hpu_name, fast):
    baseline = run_advanced(hpu_name, 1 << 12, fast)
    guarded = run_advanced(
        hpu_name, 1 << 12, fast, resilience=ResilienceConfig()
    )
    assert guarded == baseline  # dataclass equality: every field, exactly
    assert guarded.recovery == ()


@pytest.mark.parametrize("hpu_name", sorted(PLATFORMS))
def test_basic_identical_with_empty_config(hpu_name):
    baseline = run_basic(hpu_name, 1 << 12)
    assert run_basic(hpu_name, 1 << 12, ResilienceConfig()) == baseline


def test_advanced_identical_under_installed_session():
    baseline = run_advanced("HPU1", 1 << 12, True)
    with resilient() as session:
        guarded = run_advanced("HPU1", 1 << 12, True)
    assert guarded == baseline
    assert session.recovery == []


def test_identical_with_both_tracer_and_empty_session(this_n=1 << 12):
    """Resilience and tracing together still change nothing — and the
    metrics/spans the tracer collects are identical too.  A session
    runs the DES, so the baseline does too: the DES-only event and
    process counters compare as well."""
    with tracing(Tracer(name="base")) as tr_base:
        baseline = run_advanced("HPU1", this_n, True, macro=False)
    base_summary = tr_base.metrics.summary()
    base_spans = [(s.name, s.start, s.end) for s in tr_base.spans]

    deactivate()
    with resilient():
        with tracing(Tracer(name="guarded")) as tr_guarded:
            guarded = run_advanced("HPU1", this_n, True)
    assert guarded == baseline
    assert tr_guarded.metrics.summary() == base_summary
    assert [(s.name, s.start, s.end) for s in tr_guarded.spans] == base_spans
    assert not [
        s for s in tr_guarded.instants if s.category == "resilience"
    ]


def test_cpu_only_identical_with_empty_config():
    hpu = PLATFORMS["HPU1"]
    baseline = ScheduleExecutor(
        hpu, make_mergesort_workload(1 << 12)
    ).run_cpu_only()
    guarded = ScheduleExecutor(
        hpu,
        make_mergesort_workload(1 << 12),
        resilience=ResilienceConfig(),
    ).run_cpu_only()
    assert guarded == baseline
