"""Wire framing and typed error bodies (`repro.server.protocol`)."""

import json

import pytest

from repro import errors
from repro.server import protocol


class TestFraming:
    def test_roundtrip(self):
        frame = {"id": 7, "method": "stat", "params": {"path": "/x"}}
        wire = protocol.encode_frame(frame)
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert protocol.decode_frame(wire[:-1]) == frame

    def test_malformed_json_rejected(self):
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(b"{not json")

    def test_non_object_rejected(self):
        for bad in (b"[1,2]", b'"str"', b"42", b"null"):
            with pytest.raises(errors.ProtocolError):
                protocol.decode_frame(bad)

    def test_oversized_frame_rejected(self):
        line = json.dumps({"id": 1, "pad": "x" * 256}).encode()
        with pytest.raises(errors.ProtocolError):
            protocol.decode_frame(line, max_bytes=64)
        # Within the limit it parses fine.
        assert protocol.decode_frame(line, max_bytes=4096)["id"] == 1


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
