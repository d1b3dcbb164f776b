"""The persistent run index: ``results/index.jsonl``.

Every :meth:`~repro.obs.manifest.RunManifest.write` appends one compact
JSON line to the index sitting next to the run directories, so a
results tree accumulates a queryable ledger of everything ever run into
it — what ``repro-obs list`` prints and ``repro-obs diff`` resolves run
ids against.

Lines are append-only and self-contained: re-running a run id appends a
*new* line (the loader keeps the last one per id) rather than rewriting
history, which keeps the file useful as a plain audit log.  Every line
is key-sorted compact JSON, so identical runs produce byte-identical
lines and CI can compare indexes with ``cmp``.

Appends are atomic and crash-safe for concurrent writers (the
``repro.serve`` daemon runs many jobs against one tree): each entry is
one ``os.write`` to an ``O_APPEND`` descriptor — never a buffered
multi-write that another process could interleave — taken under the
advisory :func:`index_lock` the daemon shares, with an optional
``fsync`` (the ``REPRO_INDEX_FSYNC`` environment variable, or the
``fsync=`` argument) for callers that must survive power loss.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: File name of the index, created next to the run directories.
INDEX_NAME = "index.jsonl"

#: Sidecar lock file taken around index appends (and by the serve
#: daemon around its own read-modify cycles).
LOCK_NAME = INDEX_NAME + ".lock"

#: Set (to anything non-empty) to fsync the index after every append.
FSYNC_ENV = "REPRO_INDEX_FSYNC"


def index_path_for(manifest_path: Union[str, Path]) -> Path:
    """Index location for a manifest at ``results/<run-id>/manifest.json``
    — the grandparent's ``index.jsonl``."""
    return Path(manifest_path).resolve().parent.parent / INDEX_NAME


def index_line(manifest, manifest_path: Union[str, Path]) -> dict:
    """The compact index entry for one written manifest (key-sorted).

    Carries just enough to list, select and sanity-check runs without
    opening their manifests; ``manifest`` is the path relative to the
    index file so the index survives moving the results tree.
    """
    manifest_path = Path(manifest_path).resolve()
    index_path = index_path_for(manifest_path)
    try:
        rel = manifest_path.relative_to(index_path.parent)
    except ValueError:  # manifest outside the tree: keep it absolute
        rel = manifest_path
    conformance = manifest.conformance or {}
    return {
        "cache_key": getattr(manifest, "cache_key", ""),
        "conformance": conformance.get("verdict", ""),
        "created_unix": manifest.created_unix,
        "experiments": list(manifest.experiments),
        "fast": manifest.fast,
        "manifest": rel.as_posix(),
        "recovery_actions": len(manifest.recovery),
        "run_id": manifest.run_id,
        "schema_version": manifest.schema_version,
        "seed": manifest.seed,
    }


def dumps_line(entry: dict) -> str:
    """One byte-stable index line (sorted keys, compact separators)."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def index_lock(index_path: Union[str, Path]) -> Iterator[None]:
    """Advisory exclusive lock guarding one index file.

    A sidecar ``index.jsonl.lock`` is flocked for the duration — shared
    by every writer of the tree (the runner via :func:`append_entry`,
    the serve daemon around its read-modify cycles), so concurrent jobs
    serialize their appends.  On platforms without ``fcntl`` the lock
    degrades to a no-op; the single ``O_APPEND`` write in
    :func:`append_entry` still keeps lines whole there.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    index_path = Path(index_path)
    index_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(
        index_path.parent / LOCK_NAME,
        os.O_WRONLY | os.O_CREAT,
        0o644,
    )
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def append_line(
    index_path: Union[str, Path],
    line: str,
    fsync: Optional[bool] = None,
) -> None:
    """Atomically append one already-rendered line to an index file.

    The entire line (newline included) goes down in a single
    ``os.write`` on an ``O_APPEND`` descriptor under :func:`index_lock`,
    so two processes appending concurrently can never interleave
    partial lines.  ``fsync=None`` consults :data:`FSYNC_ENV`.
    """
    if fsync is None:
        fsync = bool(os.environ.get(FSYNC_ENV))
    index_path = Path(index_path)
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    with index_lock(index_path):
        fd = os.open(
            index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)


def append_entry(
    manifest,
    manifest_path: Union[str, Path],
    fsync: Optional[bool] = None,
) -> Path:
    """Append the manifest's index line; returns the index path."""
    index_path = index_path_for(manifest_path)
    append_line(
        index_path, dumps_line(index_line(manifest, manifest_path)),
        fsync=fsync,
    )
    return index_path


def load_index(results_dir: Union[str, Path]) -> List[dict]:
    """Entries of ``<results_dir>/index.jsonl``, last-write-wins per id.

    Preserves first-appended order of the surviving entries; a missing
    index is an empty list (a results tree nobody has written to yet).
    Blank and unparseable lines (hand-edits, a torn concurrent append)
    are skipped so a single bad line cannot brick the tools.
    """
    index_path = Path(results_dir) / INDEX_NAME
    if not index_path.exists():
        return []
    latest: Dict[str, dict] = {}
    order: List[str] = []
    for raw in index_path.read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if not isinstance(entry, dict):
            continue
        run_id = entry.get("run_id", "")
        if run_id not in latest:
            order.append(run_id)
        latest[run_id] = entry
    return [latest[run_id] for run_id in order]
