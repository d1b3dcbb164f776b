"""Canonical requests pinned across the request refactor.

``canonical_pins.jsonl`` holds one line per request: the raw request,
the ``traced``/``resilient`` flags, and the canonical dict
``canonical_request`` returned for it under cache schema 2, before the
runner, the serve worker and the protocol shared one request type.
Schema 3 changed exactly two keys: ``source`` (the package's source
fingerprint) replaced ``repro_version``, and ``cache_schema`` went
2 -> 3.  Every other resolved value must still equal its pin, so a
refactor of the request path cannot silently move a cache key.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.request import (
    CACHE_SCHEMA,
    canonical_request,
    source_fingerprint,
    validate_request,
)

PINS = [
    json.loads(line)
    for line in (Path(__file__).parent / "canonical_pins.jsonl")
    .read_text()
    .splitlines()
]


def test_the_table_covers_every_resolved_field():
    requests = [pin["request"] for pin in PINS]
    kinds = {r["kind"] for r in requests}
    keys = set().union(*requests)
    assert len(PINS) >= 12
    assert kinds == {"figure", "sweep"}
    assert {
        "workload", "check_model", "report", "seed", "noise_amplitude",
        "levels", "adaptive", "include_cpu_fallback",
    } <= keys
    assert any(pin["traced"] for pin in PINS)
    assert any(pin["resilient"] for pin in PINS)
    assert any(r.get("adaptive") is False for r in requests)
    assert any(r.get("include_cpu_fallback") is False for r in requests)


@pytest.mark.parametrize("pin", PINS, ids=[str(i) for i in range(len(PINS))])
def test_canonical_request_equals_its_pin(pin):
    canonical = canonical_request(
        validate_request(pin["request"]),
        traced=pin["traced"],
        resilient=pin["resilient"],
    )
    expected = dict(pin["canonical"])
    del expected["repro_version"]
    expected["cache_schema"] = CACHE_SCHEMA
    expected["source"] = source_fingerprint()
    assert CACHE_SCHEMA == 3
    assert canonical == expected
