"""Negative controls: a wrong output and a failed job must count."""

import copy
import json
import os

import pytest

from ubench import cli_cold, serve_load

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _reference_text(exp_id):
    with open(os.path.join(cli_cold.REFERENCE_DIR, f"{exp_id}.json")) as handle:
        return handle.read()


def test_reference_matches_itself():
    reference = cli_cold.json_lines(_reference_text("table2"))
    run = {"ok": True, "stdout": _reference_text("table2")}
    assert cli_cold.check_untraced("table2", run, reference) is None


def test_mutated_reference_output_is_a_failure(tmp_path, monkeypatch):
    """A real cold invocation checked against a mutated reference."""
    reference = json.loads(_reference_text("table1"))
    reference["rows"][0][1] = "mutated"
    (tmp_path / "table1.json").write_text(json.dumps(reference) + "\n")
    monkeypatch.setattr(cli_cold, "REFERENCE_DIR", str(tmp_path))
    work = tmp_path / "work"
    work.mkdir()
    result = cli_cold.run_pass(
        ROOT, str(work), {"untraced": ["table1"], "traced": []}
    )
    assert len(result["failures"]) == 1
    assert "differs from the reference" in result["failures"][0]


def test_traced_twin_mismatch_is_a_failure(tmp_path):
    twin = cli_cold.json_lines(_reference_text("fig7"))
    changed = copy.deepcopy(twin)
    changed[0]["rows"][0][2] += 1.0
    run = {"ok": True, "stdout": json.dumps(changed[0]) + "\n"}
    problem = cli_cold.check_traced("fig7", run, twin, str(tmp_path))
    assert "differ from the untraced twin" in problem
    # Matching tables but no trace/metrics files is a failure too.
    run = {"ok": True, "stdout": json.dumps(twin[0]) + "\n"}
    assert "unreadable" in cli_cold.check_traced("fig7", run, twin, str(tmp_path))


def test_nonzero_exit_is_a_failure():
    run = {"ok": False, "error": "exit 2: boom", "stdout": ""}
    assert cli_cold.check_untraced("table1", run, []) == "exit 2: boom"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One real daemon, one real sweep job and its result reply."""
    work = tmp_path_factory.mktemp("serve")
    daemon, _setup = serve_load.start_daemon(ROOT, str(work), "d")
    try:
        request = {"kind": "sweep", "platform": "HPU2", "workload": "fft",
                   "n": [4096], "seed": 11, "fast": True}
        job = daemon.client.submit(request)
        reply = daemon.client.result(job["job_id"], timeout=60)
        again = daemon.client.submit(request)
    finally:
        daemon.stop()
    return request, reply, again


def test_served_job_passes_its_checks(served):
    request, reply, again = served
    assert serve_load.check_job(request, reply, None) is None
    # The exact repeat is a hit on the originating run.
    repeat = {"job": again, "manifest": reply["manifest"]}
    assert serve_load.check_job(request, repeat, reply["job"]) is None


def test_failed_job_is_a_failure(served):
    request, reply, _again = served
    failed = copy.deepcopy(reply)
    failed["job"]["state"] = "failed"
    failed["job"]["error"] = "RuntimeError: boom"
    assert "ended failed" in serve_load.check_job(request, failed, None)


def test_served_identity_mismatches_are_failures(served):
    request, reply, again = served
    other = dict(request, seed=12)
    assert "cache_key" in serve_load.check_job(other, reply, None)
    wrong_notes = copy.deepcopy(reply)
    wrong_notes["manifest"]["results"]["sweep"]["notes"] = ["grid: 9 sizes"]
    assert "title/notes" in serve_load.check_job(request, wrong_notes, None)
    repeat = {"job": again, "manifest": reply["manifest"]}
    origin = dict(reply["job"], run_id="some-other-run")
    assert "repeat did not return" in serve_load.check_job(request, repeat, origin)


class _TwoOfAKind:
    """A stream whose two prefix positions hold the same request."""

    prefix = 2

    def __init__(self, request):
        self.item = {"request": request, "repeat_of": None}

    def __getitem__(self, index):
        return self.item


def test_replay_accepts_either_run_of_racing_duplicates(tmp_path):
    from ubench.procs import TreeRSS

    request = {"kind": "sweep", "platform": "HPU1", "workload": "matmul",
               "n": [128], "seed": 5, "fast": False}
    daemon, _setup = serve_load.start_daemon(ROOT, str(tmp_path), "d")
    try:
        with TreeRSS(daemon.proc.pid) as rss:
            load = serve_load.Load(daemon, _TwoOfAKind(request), rss)
            load.run(0.0)
        hits = load.replay()
    finally:
        daemon.stop()
    assert load.failures == []
    assert len(load.records) >= 2 and len(hits) == len(load.records)
