"""Line-delimited JSON-RPC framing for the volume server.

One frame per line, one JSON object per frame, UTF-8, ``\\n`` terminated —
trivially debuggable with ``nc`` and resynchronizable after a bad frame
(skip to the next newline).  Shapes:

request::

    {"id": 7, "method": "pwrite", "tenant": "acme",
     "session": "acme-1f", "params": {"fd": 3, "data": "...", "offset": 0}}

success response::

    {"id": 7, "result": {"written": 4096}}

error response::

    {"id": 7, "error": {"type": "Overloaded", "code": 211,
                        "message": "queue full ...", "retryable": true}}

``id`` is caller-chosen and echoed verbatim — clients multiplex many
logical sessions over one connection and match responses by it.  Responses
may arrive in any order (per-tenant worker pools complete independently).

Binary file payloads cross the wire base64-encoded (JSON has no bytes);
:func:`pack_bytes` / :func:`unpack_bytes` are the two ends of that.

``error`` bodies are generated from the exception taxonomy by
:func:`error_body` and turned back into typed exceptions by
:func:`raise_error_body` — so a client catches :class:`repro.errors.Overloaded`
with ``retryable=True``, not a stringly-typed status.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Optional

from repro import errors

#: Hard ceiling on one frame's encoded size.  Requests above it are
#: rejected with :class:`~repro.errors.ProtocolError` *before* parsing;
#: it also bounds the server's per-connection read buffer.
MAX_FRAME_BYTES = 1 << 20  # 1 MiB

#: Wire error types the client can reconstruct, by class name: every
#: :class:`~repro.errors.ReproError` the package defines.  A name this side
#: does not know (a newer server) deserializes as :class:`errors.ServerError`.
_ERROR_TYPES = {
    name: cls for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ReproError)
}


def encode_frame(obj: Dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> Dict:
    """Parse one received line into a frame dict.

    Raises :class:`~repro.errors.ProtocolError` for anything that is not a
    single JSON object within the size limit.
    """
    if len(line) > max_bytes:
        raise errors.ProtocolError(
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte limit")
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise errors.ProtocolError(f"malformed JSON frame: {exc}") from None
    if not isinstance(obj, dict):
        raise errors.ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_request(frame: Dict) -> Dict:
    """Validate a request frame's envelope; returns it with defaults filled.

    ``id`` may be any JSON scalar (echoed back); ``method`` is required;
    ``params`` defaults to ``{}``; ``tenant``/``session`` default to None
    (control methods like ``ping`` need neither).
    """
    method = frame.get("method")
    if not isinstance(method, str) or not method:
        raise errors.ProtocolError("request has no method")
    params = frame.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise errors.ProtocolError("params must be an object")
    for key in ("tenant", "session"):
        val = frame.get(key)
        if val is not None and not isinstance(val, str):
            raise errors.ProtocolError(f"{key} must be a string")
    return {
        "id": frame.get("id"),
        "method": method,
        "params": params,
        "tenant": frame.get("tenant"),
        "session": frame.get("session"),
    }


# --------------------------------------------------------------------------- #
# Responses
# --------------------------------------------------------------------------- #


def ok_response(req_id, result) -> Dict:
    return {"id": req_id, "result": result}


def error_body(exc: BaseException) -> Dict:
    """Serialize an exception into a wire ``error`` object.

    :class:`~repro.errors.ReproError` crosses typed (name + stable code +
    retryable flag); anything else degrades to a non-retryable
    ``ServerError`` so internal exception classes never leak into the
    protocol surface.
    """
    if isinstance(exc, errors.ReproError):
        return {
            "type": type(exc).__name__,
            "code": exc.code,
            "message": getattr(exc, "strerror", None) or str(exc),
            "retryable": bool(getattr(exc, "retryable", False)),
        }
    return {
        "type": "ServerError",
        "code": errors.ServerError.CODE,
        "message": f"internal error: {type(exc).__name__}: {exc}",
        "retryable": False,
    }


def error_response(req_id, exc: BaseException) -> Dict:
    return {"id": req_id, "error": error_body(exc)}


def exception_for(body: Dict) -> errors.ReproError:
    """The typed exception a wire ``error`` object describes (client side)."""
    cls = _ERROR_TYPES.get(body.get("type", ""))
    message = body.get("message", "")
    if cls is None:
        exc: errors.ReproError = errors.ServerError(message)
    elif issubclass(cls, (errors.VerifyFailure, errors.CorruptionDetected)):
        exc = cls(-1, message)
    elif cls is errors.ChainCorrupt:
        exc = cls(-1, -1)  # page numbers stay server-side; keep its text
        exc.args = (message,)
    else:
        exc = cls(message)
    exc.remote = True  # it happened on the server; local state is fine
    return exc


def raise_error_body(body: Dict) -> None:
    raise exception_for(body)


# --------------------------------------------------------------------------- #
# Binary payloads
# --------------------------------------------------------------------------- #


def pack_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unpack_bytes(field: Optional[str]) -> bytes:
    if field is None:
        return b""
    if not isinstance(field, str):
        raise errors.ProtocolError(
            f"payload must be a base64 string, got {type(field).__name__}")
    try:
        return base64.b64decode(field.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise errors.ProtocolError(f"bad base64 payload: {exc}") from None
