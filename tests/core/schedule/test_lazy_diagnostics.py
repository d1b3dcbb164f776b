"""Run diagnostics are derived on first read and equal the eager ones.

:class:`HybridRunResult`'s ``cpu_busy``, ``gpu_busy``, ``cpu_fully_busy``
and ``overlap`` used to be computed at the end of every run; they are
now cached properties of the stored intervals.  Each scenario below is
checked three ways: against the diagnostics spelled out from the raw
intervals (the formulas the runs used to apply eagerly), against values
pinned as ``float.hex`` from the eager implementation, and — where both
interpreters run the plan — DES against macro replay.
"""

import pickle

import pytest

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.schedule import (
    AdvancedSchedule,
    BasicSchedule,
    ScheduleExecutor,
)
from repro.core.schedule import macro as macro_module
from repro.hpu import HPU1, HPU2
from repro.hpu.multi import dual_card
from repro.sim.trace import (
    merge_intervals,
    overlap_length,
    time_at_concurrency,
)

DIAGNOSTICS = ("cpu_busy", "gpu_busy", "cpu_fully_busy", "overlap")


def eager(result, gpu_busy=None):
    """The diagnostics as the runs used to compute them at finish."""
    return {
        "cpu_busy": sum(
            e - s for s, e in merge_intervals(result.cpu_intervals)
        ),
        "gpu_busy": (
            sum(e - s for s, e in merge_intervals(result.gpu_intervals))
            if gpu_busy is None
            else gpu_busy
        ),
        "cpu_fully_busy": time_at_concurrency(
            result.cpu_intervals, result.cores
        ),
        "overlap": overlap_length(result.cpu_intervals, result.gpu_intervals),
    }


def lazy(result):
    return {name: getattr(result, name) for name in DIAGNOSTICS}


def hexes(values):
    return [float(values[name]).hex() for name in DIAGNOSTICS]


def check(result, pinned, gpu_busy=None):
    """Nothing computed before the first read; then the eager values,
    the pinned values, and an unchanged result under pickling."""
    assert not set(DIAGNOSTICS) & set(vars(result))
    values = lazy(result)
    assert values == eager(result, gpu_busy)
    assert hexes(values) == pinned
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert lazy(clone) == values
    return values


SMALL = make_mergesort_workload(1 << 14)

#: float.hex of (cpu_busy, gpu_busy, cpu_fully_busy, overlap) from the
#: eager implementation, HPU1, n = 2^14.
PINNED_SMALL = {
    "advanced": [
        "0x1.0728000000000p+16", "0x1.61f4e36f8fe62p+18",
        "0x1.3680000000000p+15", "0x1.9440000000000p+13",
    ],
    "cpu_only-None": [
        "0x1.4b58000000000p+16", "0x0.0p+0",
        "0x1.d2c8000000000p+15", "0x0.0p+0",
    ],
    "cpu_only-1": [
        "0x1.e000000000000p+17", "0x0.0p+0",
        "0x1.e000000000000p+17", "0x0.0p+0",
    ],
    "cpu_only-3": [
        "0x1.a274000000000p+16", "0x0.0p+0",
        "0x1.0938000000000p+16", "0x0.0p+0",
    ],
    "basic": [
        "0x1.e328000000000p+15", "0x1.33a4f4ae9e734p+18",
        "0x1.1f40000000000p+15", "0x0.0p+0",
    ],
}


def small_run(kind, macro):
    executor = ScheduleExecutor(HPU1, SMALL, macro=macro)
    if kind == "advanced":
        plan = AdvancedSchedule().plan(SMALL, HPU1.parameters, alpha=0.2)
        return executor.run_advanced(plan)
    if kind == "basic":
        return executor.run_basic(BasicSchedule().plan(SMALL, HPU1.parameters))
    cores = kind.split("-")[1]
    return executor.run_cpu_only(cores=None if cores == "None" else int(cores))


@pytest.mark.parametrize("kind", sorted(PINNED_SMALL))
def test_des_and_macro_match_the_eager_formulas(kind):
    des_values = check(small_run(kind, macro=False), PINNED_SMALL[kind])
    macro = small_run(kind, macro=None)
    mac_values = check(macro, PINNED_SMALL[kind])
    assert mac_values == des_values
    assert macro == small_run(kind, macro=False)


def test_contended_tail_matches_the_eager_formulas(monkeypatch):
    """A late transfer level makes the GPU tail race the CPU side for
    cores, so the replay's two-stream arm produces the intervals."""
    replays = []
    original = macro_module._replay_tail_contention

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        replays.append(out is not None)
        return out

    monkeypatch.setattr(macro_module, "_replay_tail_contention", counting)
    workload = make_mergesort_workload(1 << 18)
    plan = AdvancedSchedule().plan(
        workload, HPU2.parameters, alpha=0.5, transfer_level=14
    )
    pinned = [
        "0x1.4b8a400000000p+20", "0x1.63b3111111113p+18",
        "0x1.d6d6000000000p+19", "0x1.63b3111111113p+18",
    ]
    des = ScheduleExecutor(HPU2, workload, macro=False).run_advanced(plan)
    check(des, pinned)
    mac = macro_module.try_macro_advanced(
        ScheduleExecutor(HPU2, workload), plan
    )
    assert replays == [True]
    check(mac, pinned)
    assert mac == des


def test_multi_gpu_busy_sums_the_per_card_unions():
    duo = dual_card(HPU1)
    executor = ScheduleExecutor(duo, make_mergesort_workload(1 << 16))
    plan = AdvancedSchedule().plan(executor.workload, duo.parameters)
    result = executor.run_advanced_multi(plan)
    # The eager sum of the cards' busy_time()s.
    per_card = float.fromhex("0x1.e49b286bca1b2p+19")
    assert result.gpu_busy_override == per_card
    # The cards run concurrently, so their union is shorter than the sum.
    union = sum(e - s for s, e in merge_intervals(result.gpu_intervals))
    assert union < per_card
    # overlap is measured against the card intervals; the eager version
    # measured it against the primary GPU trace, which a multi-card run
    # never records into, and so always read 0.
    values = check(
        result,
        [
            "0x1.f188000000000p+17", per_card.hex(),
            "0x1.188e000000000p+17", "0x1.86e0000000000p+15",
        ],
        gpu_busy=per_card,
    )
    assert values["overlap"] > 0


def test_pickled_result_carries_no_stale_cache():
    """A result pickled after its diagnostics were read unpickles equal
    to one pickled before; equality ignores the cache."""
    before = small_run("advanced", macro=None)
    cold = pickle.dumps(before)
    lazy(before)
    warm = pickle.loads(pickle.dumps(before))
    assert pickle.loads(cold) == warm == before
    assert lazy(pickle.loads(cold)) == lazy(warm)
