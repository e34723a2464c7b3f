"""The ``/v1`` wire format shared by a replica and the fleet front.

Stdlib only, on purpose: the fleet front (:mod:`repro.service.fleet`) and
the client (:mod:`repro.service.client`) proxy and read bytes, and must
start without importing the engine, numpy, scipy or networkx.  A replica
(:mod:`repro.service.server`, :mod:`repro.service.jobs`) speaks the same
format through the same helpers, so both layers agree on routes, limits,
JSON encoding and the error envelope.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = [
    "API_PREFIX",
    "MAX_BODY_BYTES",
    "encode_json",
    "error_envelope",
    "normalize_path",
]

#: The one API version the service speaks (the ``/v1`` route prefix).
API_PREFIX = "/v1"

#: Refuse request bodies larger than this (a serialized workflow payload is
#: typically a few hundred KB at the arities this library targets).
MAX_BODY_BYTES = 64 * 1024 * 1024


def normalize_path(path: str) -> str | None:
    """The route a request path names, or ``None`` outside ``/v1``.

    ``/v1/solve`` → ``"/solve"``; an unprefixed ``/solve`` → ``None``,
    which both the replica and the fleet front answer with an enveloped
    404.
    """
    if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
        return path[len(API_PREFIX):] or "/"
    return None


def error_envelope(
    error_type: str, message: str, status: int
) -> dict[str, Any]:
    """The one wire shape every error answers with (v1 API contract)::

        {"error": {"type": ..., "message": ..., "status": ...}}

    ``type`` is the failing exception's class name, ``status`` duplicates
    the HTTP status so clients reading only the body lose nothing.
    """
    return {
        "error": {"type": error_type, "message": message, "status": status}
    }


def _scrub_nonfinite(value: Any) -> Any:
    """Replace inf/nan floats with ``None`` anywhere in a JSON-able tree."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _scrub_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub_nonfinite(item) for item in value]
    return value


def encode_json(payload: Any) -> bytes:
    """Strict RFC-8259 JSON bytes (inf/nan scrubbed to null)."""
    try:
        text = json.dumps(payload, sort_keys=True, default=str, allow_nan=False)
    except ValueError:
        # Non-RFC-8259 floats (inf/nan) would break every non-Python
        # client, so scrub them to null rather than emit the Python-only
        # Infinity/NaN tokens.
        text = json.dumps(
            _scrub_nonfinite(payload), sort_keys=True, default=str, allow_nan=False
        )
    return text.encode("utf-8")
