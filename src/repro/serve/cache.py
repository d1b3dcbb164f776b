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
    is just an in-memory view over the index (the same entries
    :func:`repro.obs.index.load_index` returns), brought up to date on
    miss by reading only the lines appended since — so direct
    ``repro-experiments`` runs warm the
    service cache, a restarted daemon rediscovers every previous run,
    and deleting a run directory evicts it (the lookup re-checks that
    the manifest file still exists).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.obs.index import INDEX_NAME, parse_lines

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
        #: Latest entry per run id, in first-appended order (what
        #: load_index returns), and how far the index has been read:
        #: the byte offset just past the last whole line, and the
        #: (device, inode) of the file it belongs to.
        self._runs: Dict[str, dict] = {}
        self._offset = 0
        self._identity: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self._by_key)

    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Catch up with the index; returns the number of cacheable entries.

        Reads only the bytes appended since the last refresh.  A torn
        last line (an append still in flight) is left for the next
        call.  A file that shrank, was replaced, or no longer ends a
        line where the last read stopped is re-read from the start.
        Later index lines win for a repeated key, matching the index's
        own last-write-wins semantics per run id.
        """
        try:
            with open(self.results_dir / INDEX_NAME, "rb") as handle:
                stat = os.fstat(handle.fileno())
                identity = (stat.st_dev, stat.st_ino)
                start = self._offset
                if start and (
                    identity != self._identity or stat.st_size < start
                ):
                    start = 0
                elif start:
                    handle.seek(start - 1)
                    if handle.read(1) != b"\n":
                        start = 0
                handle.seek(start)
                chunk = handle.read()
        except FileNotFoundError:
            identity, start, chunk = None, 0, b""
        if start == 0:
            self._by_key, self._runs = {}, {}
        whole = chunk.rfind(b"\n") + 1
        self._offset = start + whole
        self._identity = identity
        rebuild = False
        for entry in parse_lines(chunk[:whole].decode("utf-8", "replace")):
            run_id = entry.get("run_id", "")
            # A new run id is last in index order, so its key is won by
            # it; re-indexing a known id can hand a key back to another
            # run, so that re-derives every key.
            rebuild = rebuild or run_id in self._runs
            self._runs[run_id] = entry
            key = entry.get("cache_key")
            if key and not rebuild:
                self._by_key[key] = entry
        if rebuild:
            self._by_key = {}
            for entry in self._runs.values():
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
