"""Cache-key canonicalization: stable across processes and dict
orderings, distinct across anything that changes results."""

import json
import subprocess
import sys

import pytest

from repro.serve.cache import ResultCache, cache_key
from repro.serve.protocol import (
    ProtocolError,
    canonical_request,
    validate_request,
)


def key_of(data, **canonical_kwargs):
    return cache_key(
        canonical_request(validate_request(data), **canonical_kwargs)
    )


FIGURE = {"kind": "figure", "experiments": ["fig8", "table2"], "fast": True}
SWEEP = {
    "kind": "sweep",
    "platform": "HPU1",
    "n": [1 << 17, 1 << 20],
    "alphas": [0.25, 0.5],
}


class TestStability:
    def test_dict_ordering_is_irrelevant(self):
        shuffled = {
            "fast": True,
            "experiments": ["fig8", "table2"],
            "kind": "figure",
        }
        assert key_of(FIGURE) == key_of(shuffled)

    def test_defaults_resolve_to_same_key_as_explicit_values(self):
        from repro.util.rng import DEFAULT_SEED

        assert key_of(FIGURE) == key_of(dict(FIGURE, seed=DEFAULT_SEED))
        assert key_of(SWEEP) == key_of(
            dict(SWEEP, include_cpu_fallback=True)
        )

    def test_key_is_stable_across_processes(self):
        """Same request, fresh interpreter (fresh PYTHONHASHSEED) —
        byte-identical key."""
        script = (
            "import json, sys\n"
            "from repro.serve.cache import cache_key\n"
            "from repro.serve.protocol import canonical_request, "
            "validate_request\n"
            "data = json.loads(sys.stdin.read())\n"
            "print(cache_key(canonical_request(validate_request(data))))\n"
        )
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        keys = set()
        for hashseed in ("0", "1", "42"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(FIGURE),
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": src,
                    "PYTHONHASHSEED": hashseed,
                },
                check=True,
            )
            keys.add(result.stdout.strip())
        assert len(keys) == 1
        assert keys == {key_of(FIGURE)}

    def test_key_names_the_source(self, tmp_path):
        """The key fingerprints the package that computes it: a copy of
        the package keys like the original, and the same copy with one
        byte changed keys differently, so a results tree never serves a
        result of other code."""
        import os
        import shutil
        from pathlib import Path

        import repro

        script = (
            "import json, sys\n"
            "from repro.serve.cache import cache_key\n"
            "from repro.serve.protocol import canonical_request, "
            "validate_request\n"
            "data = json.loads(sys.stdin.read())\n"
            "print(cache_key(canonical_request(validate_request(data))))\n"
        )
        package = Path(repro.__file__).resolve().parent

        def copy_package(root):
            shutil.copytree(
                package,
                root / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            return root / "repro"

        def key_in(root):
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(SWEEP),
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(root)},
                timeout=300,
                check=True,
            )
            return result.stdout.strip()

        copy_package(tmp_path / "same")
        target = copy_package(tmp_path / "changed") / "core" / "schedule"
        target = target / "macro.py"
        data = target.read_bytes()
        assert data.endswith(b"\n")
        target.write_bytes(data[:-1] + b" ")

        original = key_of(SWEEP)
        assert key_in(tmp_path / "same") == original
        assert key_in(tmp_path / "changed") != original

    def test_key_shape(self):
        key = key_of(FIGURE)
        assert len(key) == 32
        int(key, 16)  # hex


class TestDistinctness:
    @pytest.mark.parametrize(
        "a,b",
        [
            (FIGURE, dict(FIGURE, experiments=["fig8"])),
            (FIGURE, dict(FIGURE, fast=False)),
            (FIGURE, dict(FIGURE, report=True)),
            (FIGURE, dict(FIGURE, check_model=True)),
            (SWEEP, dict(SWEEP, seed=7)),
            (SWEEP, dict(SWEEP, noise_amplitude=0.05)),
            (SWEEP, dict(SWEEP, n=[1 << 17])),
            (SWEEP, dict(SWEEP, alphas=[0.25, 0.75])),
            (SWEEP, dict(SWEEP, platform="HPU2")),
            (SWEEP, dict(SWEEP, include_cpu_fallback=False)),
            (SWEEP, dict(SWEEP, levels=[0, 1])),
            (SWEEP, dict(SWEEP, adaptive=False)),
        ],
    )
    def test_different_requests_different_keys(self, a, b):
        assert key_of(a) != key_of(b)

    @pytest.mark.parametrize("base", [FIGURE, SWEEP], ids=["figure", "sweep"])
    @pytest.mark.parametrize(
        "field,value",
        [("queue_backend", "heap"), ("macro", True), ("macro", False)],
    )
    def test_event_core_fields_are_rejected(self, base, field, value):
        """The event core has no run-level options, so a request that
        still names one fails strict parsing instead of keying apart."""
        with pytest.raises(ProtocolError, match="unknown request field"):
            validate_request(dict(base, **{field: value}))

    def test_kind_differs(self):
        assert key_of(FIGURE) != key_of(SWEEP)

    def test_priority_and_policies_do_not_change_the_key(self):
        """Scheduling knobs change *when* a job runs, never what it
        produces — they must not fragment the cache."""
        decorated = dict(
            FIGURE,
            priority=9,
            retry={"max_retries": 3, "backoff": 1.0},
            timeout_s=120,
        )
        assert key_of(FIGURE) == key_of(decorated)

    def test_traced_profile_changes_the_key(self):
        assert key_of(FIGURE) != key_of(FIGURE, traced=True)

    def test_resilient_runs_key_differently(self):
        assert key_of(FIGURE) != key_of(FIGURE, resilient=True)


class TestResultCache:
    def test_empty_key_never_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.record({"cache_key": "", "run_id": "r", "manifest": "x"})
        assert cache.lookup("") is None

    def test_lookup_requires_existing_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.record(
            {"cache_key": "k1", "run_id": "r1", "manifest": "r1/manifest.json"}
        )
        # Manifest file was deleted (or never copied): entry is evicted.
        assert cache.lookup("k1") is None

    def test_record_then_lookup(self, tmp_path):
        run = tmp_path / "r1"
        run.mkdir()
        (run / "manifest.json").write_text("{}")
        cache = ResultCache(tmp_path)
        cache.record(
            {"cache_key": "k1", "run_id": "r1", "manifest": "r1/manifest.json"}
        )
        entry = cache.lookup("k1")
        assert entry is not None and entry["run_id"] == "r1"
        assert cache.manifest_path(entry) == run / "manifest.json"


class TestIncrementalRefresh:
    """refresh() reads only what was appended, yet always agrees with a
    full read of the index (last write wins per run id)."""

    @staticmethod
    def line(run_id, key):
        return json.dumps(
            {"run_id": run_id, "cache_key": key, "manifest": f"{run_id}/m"},
            sort_keys=True,
        ) + "\n"

    @staticmethod
    def keys(cache):
        return {key: entry["run_id"] for key, entry in cache._by_key.items()}

    def test_append_reads_only_the_tail(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text(self.line("r1", "k1"))
        cache = ResultCache(tmp_path)
        assert cache.refresh() == 1
        first_offset = cache._offset
        with open(index, "a") as handle:
            handle.write(self.line("r2", "k2") + "\n" + "not json\n")
        assert cache.refresh() == 2
        assert cache._offset == index.stat().st_size > first_offset
        assert self.keys(cache) == {"k1": "r1", "k2": "r2"}

    def test_repeated_run_id_matches_a_full_read(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text(self.line("r1", "k") + self.line("r2", "k"))
        cache = ResultCache(tmp_path)
        cache.refresh()
        assert self.keys(cache) == {"k": "r2"}
        # Re-indexing r1 keeps its first position, so r2 still wins k.
        with open(index, "a") as handle:
            handle.write(self.line("r1", "k"))
        cache.refresh()
        full = ResultCache(tmp_path)
        full.refresh()
        assert self.keys(cache) == self.keys(full) == {"k": "r2"}

    def test_torn_last_line_waits_for_its_newline(self, tmp_path):
        index = tmp_path / "index.jsonl"
        whole = self.line("r1", "k1")
        torn = self.line("r2", "k2")
        index.write_text(whole + torn[:10])
        cache = ResultCache(tmp_path)
        assert cache.refresh() == 1
        assert cache._offset == len(whole)
        with open(index, "a") as handle:
            handle.write(torn[10:])
        assert cache.refresh() == 2
        assert self.keys(cache) == {"k1": "r1", "k2": "r2"}

    def test_truncated_index_is_reread(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text(self.line("r1", "k1") + self.line("r2", "k2"))
        cache = ResultCache(tmp_path)
        assert cache.refresh() == 2
        index.write_text(self.line("r3", "k3"))  # same inode, shorter
        assert cache.refresh() == 1
        assert self.keys(cache) == {"k3": "r3"}

    def test_replaced_index_is_reread(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text(self.line("r1", "k1"))
        cache = ResultCache(tmp_path)
        cache.refresh()
        fresh = tmp_path / "index.new"
        fresh.write_text(self.line("r8", "k8") + self.line("r9", "k9"))
        fresh.replace(index)  # new inode, longer than the old file
        assert cache.refresh() == 2
        assert self.keys(cache) == {"k8": "r8", "k9": "r9"}

    def test_rewritten_in_place_is_reread(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text(self.line("r1", "k1"))
        cache = ResultCache(tmp_path)
        cache.refresh()
        # Same inode, longer, but the old line boundary is gone.
        index.write_text(self.line("r22", "k22") + self.line("r3", "k3"))
        cache.refresh()
        assert self.keys(cache) == {"k22": "r22", "k3": "r3"}

    def test_missing_index_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.refresh() == 0
        assert cache.lookup("k1") is None
