"""Byte pins for traced CLI output.

A traced ``--fast`` run writes a Chrome trace and a metrics document
that are pure functions of the code's simulated behaviour, so their
bytes are pinned here as blake2b digests.  fig7 and figw record their
runs through the closed-form replay (contended tails included); ext1
adds a dual-card run recorded by the discrete-event engine.  Any change
to what a traced run records, or to how the exporters encode it, moves
a digest.  A change that moves one on purpose re-pins it here and says
why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: (trace.json, metrics.json) blake2b-128 hex digests per id.
DIGESTS = {
    "fig7": (
        "af6db52551337e4004cd66e20dda277f",
        "220f6a27b4997523ace18efcbfe3fb85",
    ),
    "figw": (
        "adaef6706e06297ff50bc34d594a7c7a",
        "48a02951a108eeaefad5d8e44724fa65",
    ),
    "ext1": (
        "80902997f8b6340c572c12eedb1af3ee",
        "aa06c8243ede3b1d7581fcf33589c6af",
    ),
}


def _digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize("exp_id", sorted(DIGESTS))
def test_traced_fast_run_bytes_are_pinned(tmp_path, exp_id):
    src = str(Path(repro.__file__).resolve().parents[1])
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.runner", exp_id,
            "--fast", "--trace-out", str(trace), "--metrics-out",
            str(metrics),
        ],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
        check=True,
    )
    assert (_digest(trace), _digest(metrics)) == DIGESTS[exp_id]
