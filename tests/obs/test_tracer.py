"""Unit tests for the span tracer and its module-level activation."""

import pytest

from repro.obs.tracer import (
    Instant,
    Span,
    Tracer,
    activate,
    active,
    deactivate,
    tracing,
)


class TestSpan:
    def test_duration(self):
        s = Span("sort", "cpu.batch", 10.0, 25.0, device="cpu")
        assert s.duration == 15.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span("bad", "cat", 5.0, 4.0)

    def test_to_dict_carries_attrs(self):
        s = Span("k", "gpu.kernel", 0.0, 1.0, device="gpu", attrs={"level": 3})
        d = s.to_dict()
        assert d["name"] == "k"
        assert d["device"] == "gpu"
        assert d["attrs"] == {"level": 3}

    def test_instant_is_zero_duration(self):
        i = Instant("mark", "sweep", 7.0)
        assert i.start == i.end == 7.0
        assert i.duration == 0.0


class TestTracerRuns:
    def test_spans_offset_by_run(self):
        tr = Tracer()
        tr.begin_run("first")
        tr.span("a", "c", 0.0, 10.0, device="cpu")
        tr.end_run(100.0)
        tr.begin_run("second")
        tr.span("b", "c", 0.0, 5.0, device="cpu")
        tr.end_run(50.0)
        # Second run's spans land after the first run on the global
        # timeline: runs are laid out sequentially.
        assert tr.spans[0].start == 0.0
        assert tr.spans[1].start == 100.0
        assert tr.spans[1].end == 105.0
        assert [r.offset for r in tr.runs] == [0.0, 100.0]
        assert tr.offset == 150.0

    def test_end_run_infers_duration_from_spans(self):
        tr = Tracer()
        tr.begin_run("r")
        tr.span("a", "c", 0.0, 42.0)
        tr.end_run()
        assert tr.runs[0].duration == 42.0
        assert tr.offset == 42.0

    def test_begin_run_closes_abandoned_run(self):
        tr = Tracer()
        tr.begin_run("left-open")
        tr.span("a", "c", 0.0, 10.0)
        tr.begin_run("next")  # implicitly closes the abandoned run
        assert [r.label for r in tr.runs] == ["left-open", "next"]
        # The abandoned run got closed at its latest span end, and the
        # new run starts past it on the timeline.
        assert tr.runs[0].duration == 10.0
        assert tr.runs[1].offset == 10.0

    def test_annotate_next_run_merges_and_clears(self):
        tr = Tracer()
        tr.annotate_next_run(autotune="evaluate", alpha=0.2)
        tr.begin_run("r", platform="HPU1")
        tr.end_run(1.0)
        assert tr.runs[0].attrs == {
            "autotune": "evaluate",
            "alpha": 0.2,
            "platform": "HPU1",
        }
        # Pending attrs apply to exactly one run.
        tr.begin_run("r2")
        tr.end_run(1.0)
        assert tr.runs[1].attrs == {}

    def test_spans_for_and_devices(self):
        tr = Tracer()
        tr.begin_run("r")
        tr.span("a", "c", 0.0, 1.0, device="cpu")
        tr.span("b", "c", 1.0, 2.0, device="gpu")
        tr.span("c", "c", 2.0, 3.0, device="cpu")
        tr.end_run(3.0)
        assert tr.devices() == ["cpu", "gpu"]
        assert [s.name for s in tr.spans_for("cpu")] == ["a", "c"]


class TestActivation:
    def teardown_method(self):
        deactivate()

    def test_inactive_by_default(self):
        assert active() is None

    def test_activate_returns_tracer(self):
        tr = activate(Tracer())
        assert active() is tr
        deactivate()
        assert active() is None

    def test_tracing_context_restores_previous(self):
        outer = activate(Tracer(name="outer"))
        with tracing(Tracer(name="inner")) as inner:
            assert active() is inner
        assert active() is outer

    def test_tracing_context_restores_none(self):
        deactivate()
        with tracing() as tr:
            assert active() is tr
        assert active() is None


class TestAbsorb:
    """``absorb`` is how the serve daemon stitches each job's trace;
    absorbing into an empty tracer must reproduce the source exactly."""

    def test_absorbed_snapshot_exports_identically(self):
        from repro.experiments import common
        from repro.hpu import HPU1, HPU2
        from repro.obs.export import chrome_trace, metrics_json

        common._TUNERS.clear()
        source = Tracer(name="job")
        try:
            with tracing(source):
                common.sweep_best_operating_points(
                    [(HPU1, 1 << 10), (HPU2, 1 << 10)],
                    alphas=(0.1, 0.2),
                    levels=(8, 9),
                )
        finally:
            common._TUNERS.clear()
        assert source.runs  # the sweep really recorded something

        merged = Tracer(name="job")
        merged.absorb(source.snapshot())
        assert (
            chrome_trace(merged)["traceEvents"]
            == chrome_trace(source)["traceEvents"]
        )
        assert metrics_json(merged) == metrics_json(source)
