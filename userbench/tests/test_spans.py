"""The span recorder, installed from outside into a real cold run."""

import os

from ubench import cli_cold
from ubench.layers import PER_LAYER, Phase, layer_totals

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_boot_records_layers_without_changing_output(tmp_path):
    span_dir = str(tmp_path / "spans")
    run = cli_cold.invoke(
        ROOT, ["fig8", "--fast", "--json", "--jobs", "1"], str(tmp_path), span_dir
    )
    assert run["ok"], run.get("error")
    assert cli_cold.check_untraced(
        "fig8", run, cli_cold.load_reference("fig8")
    ) is None
    phase = Phase(span_dir)
    roles = {proc["role"] for proc in phase.processes.values()}
    assert roles == {"cli"}
    totals = layer_totals(phase)
    assert set(totals) == set(PER_LAYER)
    for name in ("import.runner_s", "import.numpy_s", "experiments.run_request_s",
                 "autotune.tune_s", "schedule.run_s"):
        assert totals[name] > 0, name
    assert totals["experiments.points"] >= 1
    assert totals["schedule.runs"] >= totals["autotune.evaluations"] * 0.5
    assert 0 <= totals["schedule.macro_ratio"] <= 1
    # Every span nests inside the one top-level run_request or an import.
    top = phase.top_level("cli")
    assert all(t0 <= t1 for t0, t1 in top)
