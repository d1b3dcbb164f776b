"""Import-graph guard for the cold CLI path.

A cold ``repro-experiments <id> --fast`` process is mostly import time,
so the modules it loads are part of its cost.  ``scipy.optimize`` takes
about 0.4 s to import and the serve daemon stack with asyncio about
40 ms, and a figure run needs neither.  Sweeps run serially, so a
figure run needs no process pool either, and an untraced run needs
none of the trace exporters or the live telemetry.  The timing results
are a closed-form model plus a schedule replay on the standard library
alone, so the ten timing-only ids load no numpy (about 0.2 s) and,
without a fault plan, no ``repro.resilience``.  Only host-backed runs
and the calibration ids (table2, fig5, fig6) need numpy.  A stray
top-level import would add that cost back silently, so this test fails
instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCRIPT = """\
import contextlib, io, json, sys
from repro.experiments.runner import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main([sys.argv[1], "--fast", "--json"])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

HEAVY = (
    "scipy",
    "repro.serve.daemon",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.parallel",
    "repro.obs.export",
    "repro.obs.live",
    "numpy",
    "repro.resilience",
)

#: Every id whose output is timing only (no real arrays anywhere).
TIMING_ONLY = (
    "table1", "fig3", "fig4", "fig7", "fig8",
    "fig9", "fig10", "figw", "ext1", "ext2",
)

#: Extra modules an id must not load: table1 prints a static table,
#: and fig9 prices the Fig. 9 kernels without the hybrid schedule or
#: the analytical model.
EXTRA = {
    "table1": ("repro.core.schedule.executor", "repro.core.autotune"),
    "fig9": ("repro.core.schedule", "repro.core.model"),
}


def loaded_modules(tmp_path, exp_id):
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, exp_id],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
        check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["rc"] == 0
    return set(report["modules"])


@pytest.mark.parametrize("exp_id", TIMING_ONLY)
def test_cli_run_leaves_heavy_modules_unimported(tmp_path, exp_id):
    loaded = loaded_modules(tmp_path, exp_id)
    heavy = set(HEAVY) | set(EXTRA.get(exp_id, ()))
    assert not loaded & heavy, sorted(loaded & heavy)


def test_calibration_ids_still_load_numpy(tmp_path):
    """The guard above is not vacuous: real arrays still import numpy."""
    assert "numpy" in loaded_modules(tmp_path, "fig5")
