"""Import-graph guard for the cold CLI path.

A cold ``repro-experiments <id> --fast`` process is mostly import time,
so the modules it loads are part of its cost.  ``scipy.optimize`` takes
about 0.4 s to import and the serve daemon stack with asyncio about
40 ms, and a figure run needs neither.  Sweeps run serially, so a
figure run needs no process pool either, and an untraced run needs
none of the trace exporters, the live telemetry, or the serve protocol
that derives its cache identity (only a manifest, a JSON log or a serve
worker reads that).  The results are a closed-form model, a schedule
replay and the calibration sweeps, all on the standard library alone,
so no id loads numpy (about 0.13 s) and, without a fault plan, none
loads ``repro.resilience``.  Only host-backed runs need numpy.  An
untraced run loads neither the tracer, the metrics registry nor the
model's conformance oracle, and
only ext1, whose dual-card run queues on a shared host link, loads the
discrete-event engine: every other run replays its schedule in closed
form.  A stray top-level import would add that cost back silently, so
this test fails instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import EXPERIMENTS

CLI_SCRIPT = """\
import contextlib, io, json, sys
from repro.experiments.runner import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main([sys.argv[1], "--fast", "--json"])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

#: A host-backed run: real arrays behind a simulated schedule.
HOST_SCRIPT = """\
import json, sys
from repro.core.schedule import ScheduleExecutor
from repro.hpu import HPU1
from repro.workloads import get
run = get("mergesort").host_run(1 << 10, seed=1)
ScheduleExecutor(HPU1, run.workload).run_cpu_only()
run.verify()
print(json.dumps({"rc": 0, "modules": sorted(sys.modules)}))
"""

IMPORT_SCRIPT = """\
import json, sys
import repro.experiments.runner
print(json.dumps({"rc": 0, "modules": sorted(sys.modules)}))
"""

#: Validating and keying a sweep: the request is a leaf module.
REQUEST_SCRIPT = """\
import json, sys
from repro.experiments.request import canonical_request, validate_request
request = {"kind": "sweep", "platform": "HPU1", "n": [4096], "seed": 7}
canonical_request(validate_request(request))
print(json.dumps({"rc": 0, "modules": sorted(sys.modules)}))
"""

HEAVY = (
    "scipy",
    "repro.serve",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.parallel",
    "repro.obs.export",
    "repro.obs.live",
    "numpy",
    "repro.resilience",
)

#: What an untraced run needs only when tracing or running the DES.
UNTRACED = (
    "repro.obs.tracer",
    "repro.obs.metrics",
    "repro.sim.engine",
    "repro.core.model.oracle",
)

#: Ids whose runs take the DES: ext1's dual-card run.
DES_IDS = {"ext1"}

#: Extra modules an id must not load: table1 prints a static table,
#: and fig9 prices the Fig. 9 kernels without the hybrid schedule or
#: the analytical model.
EXTRA = {
    "table1": ("repro.core.schedule.executor", "repro.core.autotune"),
    "fig9": ("repro.core.schedule", "repro.core.model"),
}

#: Everything ``import repro.experiments.runner`` may load of the
#: package: the experiment modules load on an id's first run.
RUNNER_IMPORT = {
    "repro",
    "repro._version",
    "repro.experiments",
    "repro.experiments.result",
    "repro.experiments.runner",
    "repro.util",
    "repro.util.tables",
}


def loaded_modules(tmp_path, script, *args):
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
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


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_cli_run_leaves_heavy_modules_unimported(tmp_path, exp_id):
    loaded = loaded_modules(tmp_path, CLI_SCRIPT, exp_id)
    heavy = set(HEAVY) | set(UNTRACED) | set(EXTRA.get(exp_id, ()))
    if exp_id in DES_IDS:
        heavy.discard("repro.sim.engine")
    assert not loaded & heavy, sorted(loaded & heavy)


def test_host_backed_run_still_loads_numpy(tmp_path):
    """The guard above is not vacuous: real arrays still import numpy."""
    assert "numpy" in loaded_modules(tmp_path, HOST_SCRIPT)


def test_runner_import_loads_only_its_own_modules(tmp_path):
    loaded = loaded_modules(tmp_path, IMPORT_SCRIPT)
    ours = {m for m in loaded if m == "repro" or m.startswith("repro.")}
    assert ours == RUNNER_IMPORT


def test_request_loads_no_serve_stack(tmp_path):
    """Validating and canonicalizing a request without job policies
    needs neither the serve package nor the resilience layer."""
    loaded = loaded_modules(tmp_path, REQUEST_SCRIPT)
    assert not loaded & {"repro.serve", "repro.resilience", "asyncio"}
