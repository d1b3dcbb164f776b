"""The service protocol: JSON-lines framing around the run request.

A job request is one JSON object, validated and canonicalized by
:mod:`repro.experiments.request` — the same request type the runner's
argv and library callers build, so a served job and the same run made
directly share one canonical request and one cache key.  This module
re-exports that request API (:class:`JobRequest`,
:func:`validate_request`, :func:`canonical_request`, ...) for the
daemon and its clients.

Transport framing is JSON lines: one compact JSON object per
``\\n``-terminated line, both directions (:func:`encode_message` /
:func:`decode_message`).  The protocol is versioned with
:data:`PROTOCOL_VERSION`; requests may pin a ``protocol`` field and
are rejected on mismatch, so an old client fails loudly instead of
being misinterpreted.
"""

from __future__ import annotations

import json

from repro.experiments.request import (  # noqa: F401 (re-exports)
    CACHE_SCHEMA,
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    canonical_request,
    validate_request,
)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_message(message: dict) -> bytes:
    """One JSON-lines frame: compact, key-sorted, newline-terminated."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message
