"""Import-graph guard for the cold CLI path.

A cold ``repro-experiments <id> --fast`` process is mostly import time,
so the modules it loads are part of its cost.  ``scipy.optimize`` takes
about 0.4 s to import and the serve daemon stack with asyncio about
40 ms, and a figure run needs neither.  Sweeps run serially, so a
figure run needs no process pool either, and an untraced run needs
none of the trace exporters or the live telemetry.  A stray top-level
import would add that cost back silently, so this test fails instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """\
import contextlib, io, json, sys
from repro.experiments.runner import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["fig8", "--fast", "--json"])
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
)


def test_cli_run_leaves_heavy_modules_unimported(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
        check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["rc"] == 0
    loaded = set(report["modules"])
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))
