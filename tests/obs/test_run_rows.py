"""Compact replayed-run rows read as the DES's rows.

A traced closed-form replay records one :class:`RunRows` per run
instead of its span rows.  Every reader of the row buffer — lazy span
materialization, ``len``, ``devices``, snapshots and absorb, trace
analysis and both Chrome exports — must see exactly the rows the DES
records for the same runs.
"""

import json
import math

import pytest

from repro.algorithms.mergesort.hybrid import make_mergesort_workload
from repro.core.schedule import (
    AdvancedSchedule,
    BasicSchedule,
    ScheduleExecutor,
)
from repro.hpu import HPU1, HPU2
from repro.obs.analysis import analyze
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.tracer import RunRows, Tracer, iter_rows, tracing


def _sweep(hpu, macro):
    """A sweep-like sequence on one executor: CPU-only (homogeneous and
    heterogeneous teams), basic, advanced (contended tails included)."""
    workload = make_mergesort_workload(1 << 18)
    executor = ScheduleExecutor(hpu, workload, macro=macro)
    tracer = Tracer(name="rows")
    with tracing(tracer):
        executor.run_cpu_only()
        executor.run_cpu_only(3)
        executor.run_basic(BasicSchedule().plan(workload, hpu.parameters))
        schedule = AdvancedSchedule()
        for alpha, level in ((0.1, None), (0.35, 16), (0.5, 14), (0.2, 17)):
            tracer.annotate_next_run(alpha=alpha)
            executor.run_advanced(schedule.plan(
                workload, hpu.parameters, alpha=alpha, transfer_level=level
            ))
    return tracer


@pytest.fixture(params=[HPU1, HPU2], ids=["hpu1", "hpu2"])
def pair(request):
    """(replayed tracer, DES tracer) for the same sweep."""
    replayed = _sweep(request.param, macro=None)
    des = _sweep(request.param, macro=False)
    assert all(type(row) is RunRows for row in replayed.span_rows)
    assert not any(type(row) is RunRows for row in des.span_rows)
    return replayed, des


def _streamed(tracer, tmp_path):
    return write_chrome_trace(tmp_path / "trace.json", tracer).read_bytes()


def test_rows_spans_and_lanes_match_the_des(pair):
    replayed, des = pair
    assert list(iter_rows(replayed.span_rows)) == des.span_rows
    assert len(replayed.spans) == len(des.spans)
    assert [s.to_dict() for s in replayed.spans] == [
        s.to_dict() for s in des.spans
    ]
    assert replayed.devices() == des.devices()


def test_snapshot_and_absorb_match_the_des(pair):
    replayed, des = pair
    assert replayed.snapshot()["span_rows"] == des.snapshot()["span_rows"]
    stitched = Tracer(name="rows")
    stitched.absorb(replayed.snapshot())
    assert json.dumps(chrome_trace(stitched)) == json.dumps(chrome_trace(des))


def test_analysis_matches_the_des(pair):
    replayed, des = pair
    for run in (None, 0, len(des.runs) - 1):
        assert (
            analyze(replayed, run=run).summary()
            == analyze(des, run=run).summary()
        )


def test_streamed_export_matches_the_des(pair, tmp_path):
    replayed, des = pair
    streamed = _streamed(replayed, tmp_path)
    assert streamed == (json.dumps(chrome_trace(replayed)) + "\n").encode()
    assert streamed == _streamed(des, tmp_path)


class _Template:
    """A hand-made row template (see RunRows)."""

    def __init__(self, durations, rows):
        self.durations = durations
        self.rows = rows


def _hand_made(attrs, durations):
    """A tracer holding one RunRows over hand-made templates: a team of
    two workers and a device chain of ``durations``."""
    tracer = Tracer(name="hand")
    tracer.begin_run("first")
    tracer.span("before", "misc", 0.0, 1.0, device="cpu")
    tracer.end_run(1.0)
    record = tracer.begin_run("second")
    team = _Template(
        (2.0, 2.0),
        (("t", "cpu.worker", "w", None), ("t", "cpu.batch", "cpu", attrs)),
    )
    chain = _Template(
        durations,
        tuple(("k", "gpu.kernel", "gpu", attrs) for _ in durations),
    )
    pool = [(team, 0.0), (team, (2.0, 2.5), 4.5, None), (team, 2.0, 4.5, 2.0)]
    tracer.span_rows.append(
        RunRows(record.index, pool, [(chain, 0.0)], ("w", "cpu", "gpu"))
    )
    tracer.end_run(4.5)
    return tracer


@pytest.mark.parametrize(
    "attrs",
    [None, {"level": 1}, {"run": "own"}],
    ids=["no-attrs", "attrs", "run-clash"],
)
@pytest.mark.parametrize(
    "durations",
    [(1.0, 0.0, 2.5), (1.0, math.inf), (0.5, math.nan)],
    ids=["finite", "inf", "nan"],
)
def test_streamed_export_of_hand_made_rows(attrs, durations, tmp_path):
    tracer = _hand_made(attrs, durations)
    expected = json.dumps(chrome_trace(tracer)) + "\n"
    assert _streamed(tracer, tmp_path) == expected.encode()
    assert len(tracer.spans) == len(list(tracer.spans)) == 8 + len(durations)
