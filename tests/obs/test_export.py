"""Exporter tests: Chrome-trace schema, metrics JSON, ASCII report."""

import json

from repro.obs.export import (
    COMPLETE_EVENT_KEYS,
    RUNS_LANE,
    ascii_report,
    chrome_trace,
    metrics_json,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def make_tracer() -> Tracer:
    tr = Tracer(name="test")
    tr.begin_run("HPU1:mergesort", platform="HPU1", n=1024)
    tr.span("sort", "cpu.batch", 0.0, 10.0, device="cpu", level=2)
    tr.span("merge", "gpu.kernel", 10.0, 30.0, device="gpu", level=1)
    tr.instant("sweep:start", "autotune.sweep", 0.0, device="runs")
    tr.end_run(30.0)
    tr.begin_run("HPU1:mergesort", autotune="evaluate", alpha=0.2)
    tr.span("sort", "cpu.batch", 0.0, 5.0, device="cpu", level=2)
    tr.end_run(5.0)
    tr.metrics.counter("cpu.ops").inc(100, device="cpu", level=2)
    tr.metrics.histogram("queue.wait").observe(3.0, device="gpu")
    return tr


class TestChromeTrace:
    def test_schema_of_complete_events(self):
        doc = chrome_trace(make_tracer())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs, "expected complete events"
        for event in xs:
            assert tuple(sorted(event)) == tuple(sorted(COMPLETE_EVENT_KEYS))
            assert event["dur"] >= 0
            assert isinstance(event["ts"], (int, float))

    def test_runs_lane_and_offsets(self):
        doc = chrome_trace(make_tracer())
        runs = [e for e in doc["traceEvents"] if e.get("cat") == "run"]
        assert len(runs) == 2
        assert all(e["tid"] == 0 for e in runs)
        # Second run starts where the first ended on the global timeline.
        assert runs[0]["ts"] == 0.0 and runs[0]["dur"] == 30.0
        assert runs[1]["ts"] == 30.0
        assert runs[1]["args"]["autotune"] == "evaluate"

    def test_metadata_names_every_lane(self):
        doc = chrome_trace(make_tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named = {
            e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert {RUNS_LANE, "cpu", "gpu"} <= named
        # Metadata precedes data events so viewers name lanes up front.
        first_data = next(
            i for i, e in enumerate(doc["traceEvents"]) if e["ph"] != "M"
        )
        assert all(e["ph"] == "M" for e in doc["traceEvents"][:first_data])

    def test_instants_are_marker_events(self):
        doc = chrome_trace(make_tracer())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "p"

    def test_json_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", make_tracer())
        back = json.loads(path.read_text())
        assert back["otherData"]["runs"] == 2
        assert "simulated ops" in back["otherData"]["time_unit"]

    def test_non_jsonable_attrs_coerced(self, tmp_path):
        tr = Tracer()
        tr.begin_run("r")
        tr.span("a", "c", 0.0, 1.0, device="cpu", obj=object())
        tr.end_run(1.0)
        path = write_chrome_trace(tmp_path / "t.json", tr)
        json.loads(path.read_text())  # must not raise


def _dict_form_bytes(tracer: Tracer) -> bytes:
    """What write_chrome_trace wrote before it streamed."""
    return (json.dumps(chrome_trace(tracer)) + "\n").encode()


class TestStreamedChromeTrace:
    """write_chrome_trace streams the document the dict form describes,
    byte for byte."""

    def _assert_same_bytes(self, tracer, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", tracer)
        assert path.read_bytes() == _dict_form_bytes(tracer)

    def test_fixture_tracer(self, tmp_path):
        self._assert_same_bytes(make_tracer(), tmp_path)

    def test_empty_tracer(self, tmp_path):
        self._assert_same_bytes(Tracer(name="empty"), tmp_path)

    def test_team_rows_in_and_out_of_runs(self, tmp_path):
        tr = Tracer(name="teams")
        # Outside any run at offset 0, then at a non-zero cursor.
        tr.span_many("w", "cpu.worker", [0.0, 0.0, 0.0], 2.0, device="x")
        tr.begin_run("first")
        tr.span_many("w", "cpu.worker", [1.0, 1.0], 3.5, device="cpu.workers")
        tr.span_many("w", "cpu.worker", [0.5, 1.25, 2.0], 4.0,
                     device="cpu.workers")
        tr.span_many("w", "cpu.worker", [0.25], 4.0, device="cpu.workers")
        tr.end_run(4.0)
        tr.span_many("late", "cpu.worker", [0.0, 1.0], 1.5, device="x")
        tr.span_many("late", "cpu.worker", [0.5, 0.5], 1.5, device="x")
        tr.span("solo", "misc", 0.1, 0.2)  # untagged lane, offset 4.0
        tr.begin_run("second", alpha=0.3)
        tr.span_many("w", "cpu.worker", [0.0, 0.0], 0.1, device="cpu.workers")
        tr.end_run(0.1)
        assert tr.span_rows[4][5] is None and tr.offset == 4.1
        self._assert_same_bytes(tr, tmp_path)

    def test_shared_attr_dicts_instants_and_odd_values(self, tmp_path):
        tr = Tracer(name="näme \u2603")
        shared = {"level": 3, "phase": "combine", "tasks": 8}
        tr.instant("sweep:start", "autotune.sweep", device="runs", n=4)
        for index in range(3):
            tr.begin_run(f"run-{index}", obj=object(), none=None, flag=True)
            tr.span_at("batch", "cpu.batch", 0.0, 1.0, "cpu", shared)
            tr.span_at("batch", "cpu.batch", 1.0, 2.5, "cpu", shared)
            tr.span("kernel:ü", "gpu.kernel", 0.0, 0.75, device="gpü",
                    items=7, tup=(1, 2), nan=float("nan"))
            tr.span("clash", "misc", 0.0, 1.0, device="cpu", run="mine")
            tr.span("empty", "misc", 0.5, 0.5, device="")
            tr.instant("mark", "misc", 0.5, device="cpu", big=10 ** 30)
            tr.end_run(2.5)
        tr.span_at("after", "cpu.batch", 0.0, 1e-300, "cpu", shared)
        tr.span("huge", "misc", 0.0, 1e300, device="cpu")
        tr.instant("end", "misc")
        self._assert_same_bytes(tr, tmp_path)

    def test_non_finite_times(self, tmp_path):
        tr = Tracer()
        tr.span("inf", "misc", 0.0, float("inf"), device="cpu")
        tr.span_many("w", "cpu.worker", [float("-inf"), 1.0], 2.0)
        self._assert_same_bytes(tr, tmp_path)

    def test_absorbed_snapshot(self, tmp_path):
        """A stitched tracer mixes rows of several timelines."""
        base = make_tracer()
        other = make_tracer()
        other.span_many("w", "cpu.worker", [0.0, 1.0], 2.0, device="cpu")
        base.absorb(other.snapshot())
        self._assert_same_bytes(base, tmp_path)


class TestMetricsJson:
    def test_structure(self):
        doc = metrics_json(make_tracer())
        assert doc["format"] == "repro.obs.metrics/v1"
        assert doc["summary"]["cpu.ops"] == 100
        assert doc["metrics"]["queue.wait"]["type"] == "histogram"

    def test_accepts_bare_registry(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(1)
        path = write_metrics(tmp_path / "m.json", reg)
        back = json.loads(path.read_text())
        assert back["summary"]["x"] == 1

    def test_empty_registry_is_valid_document(self):
        doc = metrics_json(MetricsRegistry())
        assert doc["format"] == "repro.obs.metrics/v1"
        assert doc["summary"] == {} and doc["metrics"] == {}
        json.dumps(doc)

    def test_write_is_byte_stable_and_key_sorted(self, tmp_path):
        a = write_metrics(tmp_path / "a.json", make_tracer())
        b = write_metrics(tmp_path / "b.json", make_tracer())
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert list(doc["summary"]) == sorted(doc["summary"])


class TestAsciiReport:
    def test_renders_lanes_and_levels(self):
        report = ascii_report(make_tracer())
        assert "cpu" in report
        assert "gpu" in report
        assert "busy time per recursion level" in report

    def test_empty_tracer(self):
        assert "empty trace" in ascii_report(Tracer())

    def test_zero_length_spans_only(self):
        # Spans exist but none has positive duration: the timeline
        # renderer would divide by a zero horizon, so the report must
        # short-circuit instead of raising.
        tr = Tracer()
        tr.begin_run("r")
        tr.span("z", "cpu.batch", 3.0, 3.0, device="cpu")
        tr.end_run(3.0)
        report = ascii_report(tr)
        assert "degenerate trace" in report

    def test_instant_only_trace(self):
        tr = Tracer()
        tr.begin_run("r")
        tr.instant("mark", "autotune.sweep", 0.0, device="runs")
        tr.end_run(0.0)
        report = ascii_report(tr)  # must not raise
        assert "degenerate trace" in report or "empty trace" in report
