"""Content-addressed result caching over the persistent run index.

Identity
    :func:`cache_key` hashes a canonical request
    (:func:`repro.serve.protocol.canonical_request`) with ``blake2b``
    over key-sorted compact JSON — stable across processes, dict
    orderings and ``PYTHONHASHSEED``, distinct for any change to a
    behavioural field (seed, noise, grids, platform, ...).

Source of truth
    The cache owns **no** storage of its own.  Every run manifest
    records its ``cache_key`` and canonical ``request``; every
    ``results/index.jsonl`` line carries the key.  :class:`ResultCache`
    is just an in-memory view over :func:`repro.obs.index.load_index`,
    refreshed on miss — so direct ``repro-experiments`` runs warm the
    service cache, a restarted daemon rediscovers every previous run,
    and deleting a run directory evicts it (the lookup re-checks that
    the manifest file still exists).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.index import load_index

#: Hex digest length 32 (blake2b-128): plenty against collision for a
#: results tree, short enough to read in an index line.
_DIGEST_SIZE = 16


def cache_key(canonical: dict) -> str:
    """The content address of one canonical request.

    Pure function of the canonical dict's *values*: serialization is
    key-sorted compact JSON, so insertion order never matters.
    """
    payload = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


class ResultCache:
    """Map cache keys to indexed runs under one results tree."""

    def __init__(self, results_dir: Union[str, Path]) -> None:
        self.results_dir = Path(results_dir)
        self._by_key: Dict[str, dict] = {}
        self._loaded = False

    def __len__(self) -> int:
        return len(self._by_key)

    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Re-read the index; returns the number of cacheable entries.

        Later index lines win for a repeated key, matching the index's
        own last-write-wins semantics per run id.
        """
        self._by_key = {}
        for entry in load_index(self.results_dir):
            key = entry.get("cache_key")
            if key:
                self._by_key[key] = entry
        self._loaded = True
        return len(self._by_key)

    def record(self, entry: dict) -> None:
        """Register a freshly indexed run without re-reading the file."""
        key = entry.get("cache_key")
        if key:
            self._by_key[key] = entry

    def manifest_path(self, entry: dict) -> Path:
        """Absolute manifest path of a cache entry."""
        return self.results_dir / entry.get("manifest", "")

    def lookup(self, key: Optional[str]) -> Optional[dict]:
        """The index entry serving ``key``, or ``None`` on a miss.

        Empty/None keys (uncacheable runs, e.g. under fault injection)
        never hit.  A hit whose manifest has been deleted from disk is
        evicted and reported as a miss.
        """
        if not key:
            return None
        entry = self._by_key.get(key)
        if entry is None:
            # First use, or a direct runner invocation may have landed
            # since the last refresh; the index is small, cheap to re-read.
            self.refresh()
            entry = self._by_key.get(key)
        if entry is None:
            return None
        if not self.manifest_path(entry).is_file():
            self._by_key.pop(key, None)
            return None
        return entry
