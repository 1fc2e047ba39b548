"""Wire framing and typed error bodies (`repro.server.protocol`)."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.server import protocol


def framed(header: bytes, payload: bytes = b"") -> bytes:
    """A frame assembled by hand — the wire format written down a second
    time, so the tests do not ask ``protocol`` what ``protocol`` does."""
    return struct.pack("<II", len(header), len(payload)) + header + payload


class TestFraming:
    def test_roundtrip(self):
        frame = {"id": 7, "method": "stat", "params": {"path": "/x"}}
        wire = protocol.encode_frame(frame)
        assert wire == framed(
            b'{"id":7,"method":"stat","params":{"path":"/x"}}')
        assert protocol.decode_frame(wire) == frame

    def test_payload_travels_raw(self):
        blob = bytes(range(256)) + b"\n\x00"
        for owner, rest in (("params", {"method": "pwrite"}), ("result", {})):
            frame = {"id": 1, owner: {"data": blob, "n": 3}, **rest}
            wire = protocol.encode_frame(frame)
            assert wire.endswith(blob) and wire.count(blob) == 1
            assert protocol.decode_frame(wire) == frame
            assert frame[owner]["data"] is blob  # the caller's dict is its own
        # Empty is not absent.
        empty = {"id": 2, "result": {"data": b"", "n": 0}}
        assert protocol.decode_frame(protocol.encode_frame(empty)) == empty

    def test_malformed_json_rejected(self):
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(framed(b"{not json"))
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(framed(b"\xff\xfe{}"))
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(framed(b"[" * 100_000))

    def test_non_object_rejected(self):
        for bad in (b"[1,2]", b'"str"', b"42", b"null"):
            with pytest.raises(errors.ProtocolError):
                protocol.decode_frame(framed(bad))

    def test_prefix_must_describe_the_frame(self):
        good = protocol.encode_frame({"id": 1, "method": "ping"})
        for bad in (b"", good[:5], good[:-1], good + b"x"):
            with pytest.raises(errors.ProtocolError):
                protocol.decode_frame(bad)

    def test_payload_needs_an_owner(self):
        for header in (b'{"id":1}', b'{"id":1,"bin":"id"}',
                       b'{"id":1,"bin":"params"}',
                       b'{"id":1,"bin":["params"],"params":{}}',
                       b'{"id":1,"bin":"params","params":[1]}'):
            with pytest.raises(errors.ProtocolError):
                protocol.decode_frame(framed(header, b"payload"))

    def test_oversized_frame_rejected(self):
        wire = protocol.encode_frame({"id": 1, "pad": "x" * 256})
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(wire, max_bytes=64)
        # Within the limit it parses fine.
        assert protocol.decode_frame(wire, max_bytes=4096)["id"] == 1


class TestFrameSplitter:
    FRAMES = [protocol.encode_frame(f) for f in (
        {"id": 1, "method": "ping"},
        {"id": 2, "method": "pwrite", "params": {"fd": 3, "data": b"\n" * 70}},
        {"id": 3, "result": {"data": b"", "n": 0}})]

    def test_any_cut_yields_the_same_frames(self):
        stream = b"".join(self.FRAMES)
        for step in (1, 3, 8, 9, 64, len(stream)):
            splitter = protocol.FrameSplitter()
            got = []
            for at in range(0, len(stream), step):
                got.extend(splitter.feed(stream[at:at + step]))
                assert len(splitter.buffer) < max(map(len, self.FRAMES))
            assert got == self.FRAMES and len(splitter.buffer) == 0

    def test_prefix_over_the_limit_is_refused_from_the_prefix_alone(self):
        splitter = protocol.FrameSplitter(max_bytes=128)
        ping = self.FRAMES[0]
        fed = splitter.feed(ping + struct.pack("<II", 100, 100) + b"tail")
        assert next(fed) == ping  # what came before it still counts
        with pytest.raises(errors.ProtocolError, match="exceeds"):
            next(fed)
        assert len(splitter.buffer) == 0


json_scalars = st.none() | st.booleans() | st.integers(-2**63, 2**63) \
    | st.text(max_size=20)
#: Payloads that would break a line format: empty, newlines, 8-bit bytes.
payloads = st.sampled_from([b"", b"\n", b"a\nb\n", bytes(range(256))]) \
    | st.binary(max_size=300)


@st.composite
def wire_frames(draw):
    """A request or a response frame, with or without a payload."""
    body = draw(st.dictionaries(st.text(max_size=8).filter(
        lambda k: k != "data"), json_scalars, max_size=4))
    if draw(st.booleans()):
        body["data"] = draw(payloads)
    frame = {"id": draw(json_scalars)}
    if draw(st.booleans()):
        frame.update(method=draw(st.text(min_size=1, max_size=12)),
                     params=body, session=draw(st.none() | st.text(max_size=8)))
    else:
        frame["result"] = body
    return frame


def reference_encode(frame) -> bytes:
    """``encode_frame`` as the stdlib encoder writes it: the payload moved
    out, then ``JSONEncoder(separators=(",", ":")).encode`` of the rest."""
    header, payload = frame, b""
    for owner in ("params", "result"):
        body = frame.get(owner)
        if isinstance(body, dict) and isinstance(body.get("data"), bytes):
            header = {**frame, owner: {**body, "data": None}, "bin": owner}
            payload = body["data"]
            break
    text = json.JSONEncoder(separators=(",", ":")).encode(header)
    return framed(text.encode("ascii"), payload)


def reference_decode(frame: bytes):
    """``decode_frame`` with ``json.loads`` reading the header: the dict,
    or the ``ProtocolError`` class itself when the frame is refused."""
    if not 8 <= len(frame) <= protocol.MAX_FRAME_BYTES:
        return errors.ProtocolError
    header_len, payload_len = struct.unpack_from("<II", frame)
    if 8 + header_len + payload_len != len(frame):
        return errors.ProtocolError
    try:
        obj = json.loads(str(frame[8:8 + header_len], "utf-8"))
    except (ValueError, RecursionError):
        return errors.ProtocolError
    if not isinstance(obj, dict):
        return errors.ProtocolError
    owner = obj.pop("bin", None)
    if owner is None:
        return errors.ProtocolError if payload_len else obj
    body = obj.get(owner) if owner in ("params", "result") else None
    if not isinstance(body, dict):
        return errors.ProtocolError
    body["data"] = frame[8 + header_len:]
    return obj


def assert_decodes_like_json_loads(frame: bytes):
    try:
        got = protocol.decode_frame(frame)
    except errors.ProtocolError:
        got = errors.ProtocolError
    # repr, not ==: NaN is not equal to itself, and 1 == 1.0 == True.
    assert repr(got) == repr(reference_decode(frame)), frame


json_docs = st.recursive(
    json_scalars | st.floats(),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
#: Headers that are JSON, or JSON with something around it that
#: ``json.loads`` skips (whitespace) or refuses (a BOM, trailing junk).
json_headers = st.builds(
    lambda pre, doc, ascii, post: (
        pre + json.dumps(doc, ensure_ascii=ascii) + post).encode(
            "utf-8", "surrogatepass"),
    st.sampled_from(["", " ", "\t\n ", "\ufeff", "x"]), json_docs,
    st.booleans(), st.sampled_from(["", " ", "\r\n", "x", "}", "{}"]))
#: The hostile blobs, and whole frames around nearly-JSON headers.
hostile_frames = st.binary(max_size=200) | st.builds(
    lambda hl, pl, rest: struct.pack("<II", hl, pl) + rest,
    st.integers(0, 64), st.integers(0, 64), st.binary(max_size=140)) \
    | st.builds(framed, json_headers, st.sampled_from([b"", b"p"]))


class TestFrameFuzz:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=200) | st.builds(
        lambda hl, pl, rest: struct.pack("<II", hl, pl) + rest,
        st.integers(0, 64), st.integers(0, 64), st.binary(max_size=140)))
    def test_any_bytes_decode_to_a_dict_or_a_protocol_error(self, blob):
        try:
            assert isinstance(protocol.decode_frame(blob), dict)
        except errors.ProtocolError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(frame=wire_frames())
    def test_roundtrip(self, frame):
        wire = protocol.encode_frame(frame)
        assert protocol.decode_frame(wire) == frame
        assert list(protocol.FrameSplitter().feed(wire + wire)) == [wire] * 2

    @settings(max_examples=300, deadline=None)
    @given(frame=wire_frames())
    def test_encode_is_the_stdlib_encoder_byte_for_byte(self, frame):
        assert protocol.encode_frame(frame) == reference_encode(frame)

    @settings(max_examples=500, deadline=None)
    @given(blob=hostile_frames)
    def test_decode_agrees_with_json_loads(self, blob):
        assert_decodes_like_json_loads(blob)

    @pytest.mark.parametrize("header", [
        b' {"id":1} ', b'\n\t{"id":1}', b'{"id":1}\r\n', b"{}",
        b'{"x":NaN,"y":-Infinity,"z":[Infinity]}',
        '{"p":"/caf\u00e9/\u2713/\U0001f600"}'.encode("utf-8"),
        b'{"p":"/caf\\u00e9/\\ud83d\\ude00","q":"\\ud800"}',
        b'{"n":%d,"m":%d}' % (2**63, -2**70),
        b'{"a":1,"a":{"b":2},"a":3}',
        b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"a":' + b'{"a":' * 50_000 + b"1" + b"}" * 50_001,
        b'\xef\xbb\xbf{"id":1}', b'{"id":1} x', b'{"id":1}{}', b" ",
        b'{"id":1,"bin":"params","params":{}}'])
    def test_decode_agrees_with_json_loads_on_named_headers(self, header):
        assert_decodes_like_json_loads(framed(header))
        assert_decodes_like_json_loads(framed(header, b"payload"))

    @settings(max_examples=200, deadline=None)
    @given(frames=st.lists(wire_frames(), max_size=5),
           cut=st.integers(0, 1 << 16))
    def test_a_read_of_k_whole_frames_yields_k_and_buffers_nothing(
            self, frames, cut):
        wires = [protocol.encode_frame(f) for f in frames]
        splitter = protocol.FrameSplitter()
        got = list(splitter.feed(b"".join(wires)))
        assert got == wires and len(splitter.buffer) == 0
        # The same frames behind a partial one the previous read left.
        head = protocol.encode_frame({"id": 0, "result": {"data": b"x" * 9}})
        cut %= len(head)
        assert list(splitter.feed(head[:cut])) == []
        got = list(splitter.feed(head[cut:] + b"".join(wires)))
        assert got == [head] + wires and len(splitter.buffer) == 0

    def test_a_whole_frame_read_is_yielded_without_a_copy(self):
        wire = protocol.encode_frame({"id": 1, "result": {"data": b"x" * 64}})
        (frame,) = protocol.FrameSplitter().feed(wire)
        assert frame is wire

    def test_a_4k_write_read_pair_costs_a_tenth_in_framing(self):
        """A count, not a clock: the four frames of a 4 KiB ``write_file``
        + ``read_file`` on a typical path, over the bytes the user moved
        (base64 in a JSON line made this 1.39)."""
        data, path = bytes(range(256)) * 16, "/d07/f0123.dat"
        frames = [
            {"id": 101, "method": "write_file", "session": "t0-1",
             "params": {"path": path, "data": protocol.pack_bytes(data)}},
            protocol.ok_response(101, {"written": len(data)}),
            {"id": 102, "method": "read_file", "session": "t0-1",
             "params": {"path": path}},
            protocol.ok_response(102, {"data": protocol.pack_bytes(data),
                                       "n": len(data)})]
        wire = sum(len(protocol.encode_frame(f)) for f in frames)
        assert wire / (2 * len(data)) <= 1.10


class TestParseRequest:
    def test_defaults_filled(self):
        req = protocol.parse_request({"method": "ping"})
        assert req == {"id": None, "method": "ping", "params": {},
                       "tenant": None, "session": None}

    def test_missing_method(self):
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"id": 1})
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"method": ""})
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"method": 42})

    def test_bad_params_type(self):
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"method": "stat", "params": [1]})

    def test_bad_tenant_session_types(self):
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"method": "stat", "tenant": 9})
        with pytest.raises(errors.ProtocolError):
            protocol.parse_request({"method": "stat", "session": 9})


class TestErrorBodies:
    def test_overloaded_is_typed_and_retryable(self):
        body = protocol.error_body(errors.Overloaded("queue full"))
        assert body["type"] == "Overloaded"
        assert body["code"] == 211
        assert body["retryable"] is True

    def test_fs_error_keeps_errno_code(self):
        body = protocol.error_body(errors.NoEntry("/missing"))
        assert body["type"] == "NoEntry"
        assert body["code"] == errors.NoEntry.ERRNO
        assert body["retryable"] is False

    def test_try_again_is_retryable(self):
        body = protocol.error_body(errors.TryAgain("owned elsewhere"))
        assert body["retryable"] is True

    def test_internal_exception_degrades_to_server_error(self):
        body = protocol.error_body(ValueError("boom"))
        assert body["type"] == "ServerError"
        assert body["retryable"] is False
        assert "boom" in body["message"]

    def test_exception_roundtrip(self):
        for exc in (errors.Overloaded("q"), errors.TenantLimit("cap"),
                    errors.SessionGone("tok"), errors.NoEntry("/x"),
                    errors.TryAgain("later")):
            back = protocol.exception_for(protocol.error_body(exc))
            assert type(back) is type(exc)
            assert getattr(back, "retryable", False) == \
                getattr(exc, "retryable", False)

    def test_every_repro_error_crosses_the_wire_as_itself(self):
        """Nobody keeps the wire's type table by hand: every ``ReproError``
        class the package defines, bases included, survives ``error_body`` →
        ``exception_for`` with its class, code, retryable flag and CLI exit
        status.  (``TxAborted`` used to arrive as a non-retryable
        ``ServerError`` with code 210 and exit 8.)"""
        args = {errors.VerifyFailure: (7, "why"),
                errors.CorruptionDetected: (7, "why"),
                errors.ChainCorrupt: (9, 3)}

        def family(cls):
            yield cls
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro."):
                    yield from family(sub)

        classes = set(family(errors.ReproError))
        assert len(classes) > 20, classes  # the walk is not vacuous
        for cls in classes:
            exc = cls(*args.get(cls, ("boom",)))
            body = protocol.error_body(exc)
            back = protocol.exception_for(body)
            assert type(back) is cls, (cls, type(back))
            assert back.code == exc.code == body["code"], cls
            assert getattr(back, "retryable", False) == getattr(
                exc, "retryable", False) == body["retryable"], cls
            assert errors.exit_code_for(back) == errors.exit_code_for(exc), cls
            assert body["message"] in str(back), cls

    def test_unknown_type_becomes_server_error(self):
        exc = protocol.exception_for({"type": "Mystery", "message": "?"})
        assert isinstance(exc, errors.ServerError)

    def test_raise_error_body(self):
        with pytest.raises(errors.Overloaded):
            protocol.raise_error_body(
                protocol.error_body(errors.Overloaded("x")))


class TestPayloads:
    def test_bytes_roundtrip(self):
        blob = bytes(range(256)) * 3
        assert protocol.unpack_bytes(protocol.pack_bytes(blob)) == blob
        assert protocol.unpack_bytes(None) == b""

    def test_bad_base64_rejected(self):
        with pytest.raises(errors.ProtocolError):
            protocol.unpack_bytes("@@not-base64@@")
