"""The unified error taxonomy and the CLI's exit-code mapping."""

import dataclasses
import errno

import pytest

from repro import errors as E
from repro.cli import main
from repro.experiments import EXPERIMENTS


def _replace_run(monkeypatch, run):
    """Make ``reproduce table4`` call ``run`` instead of the experiment."""
    monkeypatch.setitem(EXPERIMENTS, "table4",
                        dataclasses.replace(EXPERIMENTS["table4"], run=run))


class TestTaxonomy:
    def test_everything_catchable_is_a_repro_error(self):
        for exc in (E.NoEntry(), E.NoSpace(), E.InvalidArgument("x"),
                    E.VerifyFailure(3, "bad"), E.CorruptionDetected(3, "bad"),
                    E.LeaseExpired("gone")):
            assert isinstance(exc, E.ReproError)

    def test_fs_errors_remain_oserrors(self):
        exc = E.NoEntry("missing")
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENOENT
        assert exc.code == errno.ENOENT

    def test_protection_domain_codes_are_stable(self):
        assert E.VerifyFailure(1, "r").code == 200
        assert E.CorruptionDetected(1, "r").code == 201
        assert E.LeaseExpired().code == 202
        exc = E.ChainCorrupt(2050, 114)
        assert (exc.code, exc.bad, exc.last_good) == (203, 2050, 114)
        # Still a ValueError: pre-existing ``except ValueError`` sites hold.
        assert isinstance(exc, E.ReproError) and isinstance(exc, ValueError)

    def test_server_family_codes_and_retryability(self):
        assert E.ServerError("x").code == 210
        assert E.Overloaded("x").code == 211
        assert E.TenantLimit("x").code == 212
        assert E.ProtocolError("x").code == 213
        assert E.SessionGone("x").code == 214
        # retryable is the wire contract: back-off-and-retry errors only.
        assert not E.ServerError("x").retryable
        assert E.Overloaded("x").retryable
        assert E.TenantLimit("x").retryable
        assert not E.ProtocolError("x").retryable
        assert E.SessionGone("x").retryable
        assert E.TryAgain("x").retryable

    def test_try_again_names_the_conflict_off_the_wire(self):
        from repro.server import protocol

        plain = E.TryAgain("global rename lease unavailable")
        assert (plain.owner, plain.ino) == (None, None)
        busy = E.TryAgain("inode 7 owned by acme#1", owner="acme#1", ino=7)
        assert (busy.owner, busy.ino) == ("acme#1", 7)
        with pytest.raises(TypeError):
            E.TryAgain("x", "acme#1", 7)  # keyword-only
        for exc in (plain, busy):
            assert exc.errno == exc.code == errno.EAGAIN and exc.retryable
        # Message, errno and wire body are what they were: the typed
        # fields stay on the raising side.
        assert str(busy) == "[Errno 11] inode 7 owned by acme#1"
        assert protocol.error_body(busy) == {
            "type": "TryAgain", "code": errno.EAGAIN,
            "message": "inode 7 owned by acme#1", "retryable": True}
        back = protocol.exception_for(protocol.error_body(busy))
        assert type(back) is E.TryAgain and back.owner is None

    def test_canonical_reexports(self):
        from repro.concurrency.lease import LeaseExpired as L2
        from repro.kernel.verifier import VerifyFailure as V2

        assert V2 is E.VerifyFailure
        assert L2 is E.LeaseExpired


class TestExitCodes:
    @pytest.mark.parametrize("exc,want", [
        (E.InvalidArgument("x"), E.EXIT_USAGE),
        (E.NoSpace(), E.EXIT_NO_SPACE),
        (E.NoEntry(), E.EXIT_FS_ERROR),
        (E.Exists(), E.EXIT_FS_ERROR),
        (E.VerifyFailure(1, "r"), E.EXIT_CORRUPTION),
        (E.CorruptionDetected(1, "r"), E.EXIT_CORRUPTION),
        (E.LeaseExpired(), E.EXIT_LEASE),
        (E.ReproError("other"), E.EXIT_OTHER),
        (E.ServerError("s"), E.EXIT_SERVER),
        (E.Overloaded("q full"), E.EXIT_SERVER),
        (E.TenantLimit("cap"), E.EXIT_SERVER),
        (E.ProtocolError("bad frame"), E.EXIT_SERVER),
        (E.SessionGone("tok"), E.EXIT_SERVER),
        (E.TxError("misuse"), E.EXIT_TX),
        (E.TxAborted("rolled back"), E.EXIT_TX),
        (E.TxCommitPending("remount"), E.EXIT_TX),
        (E.ChainCorrupt(9, 3), E.EXIT_CORRUPTION),
    ])
    def test_mapping(self, exc, want):
        assert E.exit_code_for(exc) == want

    def test_unknown_repro_error_subclass_gets_documented_fallback(self):
        # The regression this guards: a new ReproError family added without
        # an _EXIT_TABLE row must exit EXIT_OTHER (7), never an unmapped
        # (or accidental) status.
        class FutureFamily(E.ReproError):
            CODE = 299

        assert E.exit_code_for(FutureFamily("novel")) == E.EXIT_OTHER
        assert E.exit_code_for(RuntimeError("not ours")) == E.EXIT_OTHER

    def test_exit_table_precedence_is_most_specific_first(self):
        # InvalidArgument and NoSpace are FSErrors but must win their own
        # rows; TryAgain has no row and falls through to the family's.
        assert E.exit_code_for(E.InvalidArgument("x")) != E.EXIT_FS_ERROR
        assert E.exit_code_for(E.TryAgain("busy")) == E.EXIT_FS_ERROR

    @pytest.mark.parametrize("exc,want", [
        (E.NoSpace("volume full"), E.EXIT_NO_SPACE),
        (E.CorruptionDetected(7, "uid changed"), E.EXIT_CORRUPTION),
        (E.LeaseExpired("lapsed"), E.EXIT_LEASE),
        (E.NoEntry("gone"), E.EXIT_FS_ERROR),
    ])
    def test_cli_maps_repro_errors(self, monkeypatch, capsys, exc, want):
        def boom():
            raise exc

        _replace_run(monkeypatch, boom)
        assert main(["reproduce", "table4"]) == want
        assert "error:" in capsys.readouterr().err


class TestSpanCapture:
    def test_errors_capture_active_span_path_and_trace_id(self):
        from repro import obs

        obs.enable(trace=True)
        with obs.span("creat"):
            with obs.span("alloc.page"):
                err = E.NoSpace("pool dry")
        obs.disable()
        assert err.span_path == "creat;alloc.page"
        assert err.trace_id == obs.trace_id() or err.trace_id is not None

    def test_errors_outside_obs_have_no_span(self):
        err = E.InvalidArgument("plain")
        assert err.span_path is None
        assert err.trace_id is None

    def test_cli_json_error_doc_reports_span(self, monkeypatch, capsys):
        import json

        from repro import obs

        def boom():
            obs.enable(trace=True)
            try:
                with obs.span("doomed.op"):
                    raise E.CorruptionDetected(3, "uid changed")
            finally:
                obs.disable()

        _replace_run(monkeypatch, boom)
        assert main(["reproduce", "table4", "--json"]) == E.EXIT_CORRUPTION
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "CorruptionDetected"
        assert doc["exit"] == E.EXIT_CORRUPTION
        assert doc["span_path"] == "doomed.op"
        assert "trace_id" in doc

    def test_cli_text_error_mentions_span(self, monkeypatch, capsys):
        from repro import obs

        def boom():
            obs.enable(trace=True)
            try:
                with obs.span("doomed.op"):
                    raise E.LeaseExpired("lapsed")
            finally:
                obs.disable()

        _replace_run(monkeypatch, boom)
        assert main(["reproduce", "table4"]) == E.EXIT_LEASE
        err = capsys.readouterr().err
        assert "error: lapsed" in err
        assert "(at doomed.op)" in err
