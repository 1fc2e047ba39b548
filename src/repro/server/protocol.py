"""Length-prefixed framing for the volume server.

One frame is an 8-byte prefix, a compact JSON header and a raw payload::

    | header bytes (u32le) | payload bytes (u32le) | header | payload |

The header is one JSON object, UTF-8.  Shapes:

request::

    {"id": 7, "method": "pwrite", "tenant": "acme", "session": "acme-1f",
     "params": {"fd": 3, "data": null, "offset": 0}, "bin": "params"}

success response::

    {"id": 7, "result": {"written": 4096}}

error response::

    {"id": 7, "error": {"type": "Overloaded", "code": 211,
                        "message": "... over its per-read bound ...",
                        "retryable": true}}

``id`` is caller-chosen and echoed verbatim — clients multiplex many
logical sessions over one connection and match responses by it.  One
connection is answered in request order; across connections nothing is
promised.

File contents never pass through JSON: a ``bytes`` ``params["data"]`` or
``result["data"]`` is the frame's payload, byte for byte, and ``"bin"``
names which of the two it belongs to.  :func:`encode_frame` moves it out,
:func:`decode_frame` puts it back, so both ends only ever hold ``bytes``
(:func:`pack_bytes` / :func:`unpack_bytes` are the type check).

The prefix makes the stream cuttable (:class:`FrameSplitter`).  A frame
whose *header* is bad — not JSON, not an object, a payload nobody owns —
still says where the next frame starts: it costs one error reply and the
connection lives.  A bad *prefix* leaves nothing to resynchronise on, every
later byte would be read as lengths; so one announcing more than the frame
limit is refused from its eight bytes alone, before the rest is buffered:
one error reply, then a hang-up.  ``nc`` cannot read this; to eyeball a
capture, ``[decode_frame(raw) for raw in FrameSplitter().feed(capture)]``.

``error`` bodies are generated from the exception taxonomy by
:func:`error_body` and turned back into typed exceptions by
:func:`raise_error_body` — so a client catches :class:`repro.errors.Overloaded`
with ``retryable=True``, not a stringly-typed status.
"""

from __future__ import annotations

import json
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Iterator, Optional

from repro import errors

#: Hard ceiling on one frame's encoded size, prefix included: a 1 MiB
#: payload plus up to 64 KiB of prefix and header.  A prefix announcing
#: more is refused with :class:`~repro.errors.ProtocolError` *before* the
#: frame is buffered, so it also bounds each end's per-connection read
#: buffer; a client refuses to send one and the server to reply one.
MAX_FRAME_BYTES = (1 << 20) + (64 << 10)

#: The frame prefix: header length, payload length.
_PREFIX = struct.Struct("<II")
#: The two objects a frame's payload can be the ``data`` of.
_PAYLOAD_OWNERS = ("params", "result")
#: JSON's C encoder, set up once: what ``JSONEncoder(separators=(",",
#: ":")).encode`` builds again on every call (ASCII escapes, ``NaN``
#: allowed), minus the cycle check — a frame is a tree this package built,
#: and a cycle ends in ``RecursionError`` instead of ``ValueError``.
_ENCODE = c_make_encoder(None, json.JSONEncoder().default,
                         encode_basestring_ascii, None, ":", ",",
                         False, False, True)
#: JSON's C scanner: ``JSONDecoder().raw_decode`` without its Python frame.
_SCAN = json.JSONDecoder().scan_once

#: Wire error types the client can reconstruct, by class name: every
#: :class:`~repro.errors.ReproError` the package defines.  A name this side
#: does not know (a newer server) deserializes as :class:`errors.ServerError`.
_ERROR_TYPES = {
    name: cls for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ReproError)
}


def encode_frame(obj: Dict) -> bytes:
    """One wire frame: prefix, compact JSON header, raw payload."""
    payload = b""
    for owner in _PAYLOAD_OWNERS:
        body = obj.get(owner)
        if isinstance(body, dict) and isinstance(body.get("data"), bytes):
            payload = body["data"]
            obj = {**obj, owner: {**body, "data": None}, "bin": owner}
            break
    header = "".join(_ENCODE(obj, 0)).encode("ascii")
    return b"".join((_PREFIX.pack(len(header), len(payload)), header, payload))


def decode_frame(frame: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> Dict:
    """Parse one whole received frame into a frame dict.

    Raises :class:`~repro.errors.ProtocolError` for anything that is not a
    prefix, the single JSON object and the payload it announces, within the
    size limit.
    """
    if len(frame) > max_bytes:
        raise errors.ProtocolError(
            f"frame of {len(frame)} bytes exceeds the {max_bytes}-byte limit")
    if len(frame) < _PREFIX.size:
        raise errors.ProtocolError(f"frame of {len(frame)} bytes has no prefix")
    header_len, payload_len = _PREFIX.unpack_from(frame)
    payload_at = _PREFIX.size + header_len
    if payload_at + payload_len != len(frame):
        raise errors.ProtocolError(
            f"frame of {len(frame)} bytes, prefix announces "
            f"{payload_at + payload_len}")
    try:
        text = str(frame[_PREFIX.size:payload_at], "utf-8")
        # One C scan when the header is one JSON value edge to edge, as
        # every header this package encodes is; ``json.loads`` itself —
        # whitespace, a BOM, trailing bytes, the errors — otherwise.
        try:
            obj, end = _SCAN(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):
            obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise errors.ProtocolError(f"malformed JSON header: {exc}") from None
    if not isinstance(obj, dict):
        raise errors.ProtocolError(
            f"header must be a JSON object, got {type(obj).__name__}")
    owner = obj.pop("bin", None)
    if owner is None:
        if payload_len:
            raise errors.ProtocolError("payload without a \"bin\" owner")
        return obj
    body = obj.get(owner) if owner in _PAYLOAD_OWNERS else None
    if not isinstance(body, dict):
        raise errors.ProtocolError(f"payload owner {owner!r} is not an object")
    body["data"] = bytes(frame[payload_at:])
    return obj


class FrameSplitter:
    """Cuts a byte stream back into whole frames, whatever chunks it
    arrives in.  ``buffer`` holds, between calls, less than one frame whose
    prefix passed the limit: never ``max_bytes``."""

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self.buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Yield each frame ``data`` completes, in order: slices of
        ``data`` itself — the whole of it when it is one frame — unless a
        frame straddles reads; only such a frame's pieces are copied.  A
        prefix over the limit raises :class:`~repro.errors.ProtocolError`
        once the frames before it are out, and drops what is buffered: the
        stream is over."""
        buf = self.buffer
        if buf:
            buf += data
            if len(buf) < _PREFIX.size:
                return
            size = _PREFIX.size + sum(_PREFIX.unpack_from(buf))
            if size > self.max_bytes:
                buf.clear()
                raise self._too_big(size)
            if len(buf) < size:
                return
            data = bytes(buf)
            buf.clear()
        pos, end = 0, len(data)
        try:
            while end - pos >= _PREFIX.size:
                size = _PREFIX.size + sum(_PREFIX.unpack_from(data, pos))
                if size > self.max_bytes:
                    pos = end
                    raise self._too_big(size)
                if end - pos < size:
                    break
                pos += size
                yield data[pos - size:pos]
        finally:
            if pos < end:
                buf += memoryview(data)[pos:]

    def _too_big(self, size: int) -> errors.ProtocolError:
        return errors.ProtocolError(
            f"frame of {size} bytes exceeds the {self.max_bytes}-byte limit")


def parse_request(frame: Dict) -> Dict:
    """Validate a request frame's envelope in place and fill its defaults;
    returns it.

    ``id`` may be any JSON scalar (echoed back); ``method`` is required;
    ``params`` defaults to ``{}``; ``tenant``/``session`` default to None
    (control methods like ``ping`` need neither).
    """
    method = frame.get("method")
    if not isinstance(method, str) or not method:
        raise errors.ProtocolError("request has no method")
    params = frame.get("params")
    if params is None:
        frame["params"] = {}
    elif not isinstance(params, dict):
        raise errors.ProtocolError("params must be an object")
    for key in ("tenant", "session"):
        val = frame.setdefault(key, None)
        if val is not None and not isinstance(val, str):
            raise errors.ProtocolError(f"{key} must be a string")
    frame.setdefault("id", None)
    return frame


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


def pack_bytes(data: bytes) -> bytes:
    """The payload as it goes into a frame dict: itself, if it is bytes."""
    if not isinstance(data, bytes):
        raise errors.ProtocolError(
            f"payload must be bytes, got {type(data).__name__}")
    return data


def unpack_bytes(field: Optional[bytes]) -> bytes:
    return b"" if field is None else pack_bytes(field)
