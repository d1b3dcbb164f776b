"""Unit contract of the workload registry itself.

Entry validation, lookup errors that name what *is* registered,
size validation against each entry's constraints, and the seeded
roster the rest of ``tests/workloads`` parameterizes over.
"""

import pytest

from repro.workloads import (
    DEFAULT_WORKLOAD,
    WorkloadEntry,
    WorkloadError,
    entries,
    get,
    is_registered,
    make_synthetic_workload,
    register,
    unregister,
    workload_ids,
)

#: The ids ISSUE 8 requires seeded, in registration order.
SEEDED = (
    "mergesort",
    "quicksort",
    "closest_pair",
    "strassen",
    "fft",
    "matmul",
)


def _toy_entry(workload_id="toy_entry", **overrides):
    kwargs = dict(
        workload_id=workload_id,
        title="toy",
        recurrence="T(n) = 2·T(n/2) + n",
        build=lambda n: make_synthetic_workload(2, 2, 3),
    )
    kwargs.update(overrides)
    return WorkloadEntry(**kwargs)


class TestRoster:
    def test_seeded_workloads_registered_in_order(self):
        assert workload_ids() == SEEDED

    def test_default_workload_is_the_reference_entry(self):
        assert DEFAULT_WORKLOAD == "mergesort"
        assert is_registered(DEFAULT_WORKLOAD)

    def test_entries_align_with_ids(self):
        assert tuple(e.workload_id for e in entries()) == workload_ids()

    def test_at_least_four_non_mergesort_workloads(self):
        others = [w for w in workload_ids() if w != "mergesort"]
        assert len(others) >= 4

    def test_every_seeded_entry_has_a_host_builder(self):
        for entry in entries():
            assert entry.build_host is not None, entry.workload_id


class TestLookup:
    def test_get_unknown_lists_registered(self):
        with pytest.raises(WorkloadError, match="mergesort"):
            get("no_such_workload")

    def test_is_registered(self):
        assert not is_registered("no_such_workload")

    def test_register_duplicate_rejected(self):
        with pytest.raises(WorkloadError, match="already registered"):
            register(_toy_entry(workload_id="mergesort"))

    def test_register_replace_and_unregister(self):
        entry = _toy_entry()
        register(entry)
        try:
            assert get("toy_entry") is entry
            replacement = _toy_entry(title="toy v2")
            register(replacement, replace=True)
            assert get("toy_entry") is replacement
        finally:
            unregister("toy_entry")
        assert not is_registered("toy_entry")

    def test_unregister_unknown_raises(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            unregister("no_such_workload")


#: Runs in a fresh interpreter, where no adapter is loaded yet.
LAZY_SCRIPT = """\
import sys
from repro.workloads import (
    WorkloadEntry, WorkloadError, get, is_registered, make_synthetic_workload,
    register, unregister, workload_ids,
)

def adapters():
    return sorted(m for m in sys.modules if m.startswith("repro.workloads.")
                  and m not in ("repro.workloads.registry",
                                "repro.workloads.synthetic"))

def toy(workload_id):
    return WorkloadEntry(
        workload_id=workload_id, title="toy", recurrence="T(n) = 2T(n/2) + n",
        build=lambda n: make_synthetic_workload(2, 2, 3),
    )

assert workload_ids()[0] == "mergesort" and is_registered("fft")
assert adapters() == [], adapters()
assert get("fft").workload_id == "fft"
assert adapters() == ["repro.workloads.fft"], adapters()
try:
    register(toy("quicksort"))
except WorkloadError:
    pass
else:
    raise AssertionError("a pending built-in id was taken")
replaced = register(toy("strassen"), replace=True)
import repro.workloads.strassen
assert get("strassen") is replaced
unregister("matmul")
import repro.workloads.matmul
assert not is_registered("matmul")
assert workload_ids() == (
    "mergesort", "quicksort", "closest_pair", "strassen", "fft",
), workload_ids()
print("ok")
"""


class TestLazyAdapters:
    def test_adapters_load_on_first_lookup(self):
        """Listing ids imports no adapter; a lookup imports its own, and
        a user entry over a built-in id meets the built-in as if the
        registry were eager."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", LAZY_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestEntryValidation:
    def test_id_must_be_identifier(self):
        with pytest.raises(WorkloadError, match="identifier"):
            _toy_entry(workload_id="not-an-identifier")

    def test_min_n_must_be_power_of_two(self):
        with pytest.raises(WorkloadError, match="min_n"):
            _toy_entry(min_n=24)

    def test_conformance_band_must_be_positive(self):
        with pytest.raises(WorkloadError, match="conformance_band"):
            _toy_entry(conformance_band=0.0)

    def test_validate_n_rejects_bool_and_non_int(self):
        entry = _toy_entry()
        with pytest.raises(WorkloadError, match="integer"):
            entry.validate_n(True)
        with pytest.raises(WorkloadError, match="integer"):
            entry.validate_n(64.0)

    def test_validate_n_enforces_min_and_power_of_two(self):
        entry = _toy_entry(min_n=64)
        assert entry.validate_n(64) == 64
        with pytest.raises(WorkloadError, match=">= 64"):
            entry.validate_n(32)
        with pytest.raises(WorkloadError, match="power of two"):
            entry.validate_n(96)

    def test_workload_builds_through_validation(self):
        entry = _toy_entry(min_n=64)
        assert entry.workload(64).name.startswith("synthetic")
        with pytest.raises(WorkloadError):
            entry.workload(16)

    def test_host_run_on_timing_only_entry_raises(self):
        with pytest.raises(WorkloadError, match="timing-only"):
            _toy_entry().host_run(64)

    def test_default_sizes_never_empty(self):
        entry = _toy_entry(min_n=64)
        assert entry.default_sizes(fast=True) == (64,)
        assert entry.default_sizes(fast=False) == (64,)
        sized = _toy_entry(fast_sizes=(128,), full_sizes=(128, 256))
        assert sized.default_sizes(fast=True) == (128,)
        assert sized.default_sizes(fast=False) == (128, 256)


class TestSeededEntryGeometry:
    """Each seeded entry's declared recursion matches its workload."""

    @pytest.mark.parametrize("workload_id", SEEDED)
    def test_workload_matches_declared_arity(self, workload_id):
        entry = get(workload_id)
        n = entry.min_n * 4
        w = entry.workload(n)
        assert w.level_tasks[0] == 1
        for i in range(1, len(w.level_tasks)):
            assert w.level_tasks[i] == w.rec_a * w.level_tasks[i - 1]
        assert w.leaf_tasks == w.rec_a * w.level_tasks[-1]
        assert all(c > 0 for c in w.level_cost)
        assert w.leaf_cost > 0

    @pytest.mark.parametrize("workload_id", SEEDED)
    def test_size_grids_respect_min_n(self, workload_id):
        entry = get(workload_id)
        for fast in (True, False):
            for n in entry.default_sizes(fast):
                assert entry.validate_n(n) == n
