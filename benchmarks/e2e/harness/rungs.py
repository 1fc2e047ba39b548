"""The ladder: the same op executed at each layer boundary.

Bottom to top: ``libfs`` (``session.fs.<op>``), ``api`` (``Session.<op>``),
``server.dispatch`` (``SESSION_OPS[m](session, params)``),
``server.release`` (+ ``release_all()`` after every request, as the server
does), ``server.protocol`` (+ frame encode/decode/parse both ways) and
``wire`` (a ``ServerClient`` over loopback).  Each rung turns a wire-shaped
call ``(method, *args)`` into its layer's call; :func:`run_op` and
:func:`arun_op` compose the calls of one logical op the same way on every
rung, so two rungs differ only in what one call costs.  The ``pm`` and
``core`` rungs are in :mod:`harness.probes`.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.errors import ReproError
from repro.server import protocol
from repro.server.client import ServerClient
from repro.server.dispatch import SESSION_OPS

from .host import HostClock
from .spans import Recorder
from .streams import Op

#: Wire parameter names of each method, in the positional order the LibFS
#: method of the same name takes them.
PARAMS = {
    "creat": ("path",), "open": ("path",), "close": ("fd",),
    "unlink": ("path",), "stat": ("path",), "readdir": ("path",),
    "mkdir": ("path",), "rmdir": ("path",), "rename": ("old", "new"),
    "pread": ("fd", "n", "offset"), "pwrite": ("fd", "data", "offset"),
    "read_file": ("path",), "write_file": ("path", "data"),
    "truncate": ("path", "size"),
    "tx_begin": (), "tx_op": ("op", "path", "data", "offset"),
    "tx_commit": (),
}
_READS = ("pread", "read_file")
_OPENS = ("creat", "open")

#: Calls one logical op makes, by kind: what :func:`run_op` issues.  On the
#: wire, requests beyond these are the client's retries.
CALLS = {"pread": 1, "read_file": 1, "pwrite": 1, "write_file": 1,
         "truncate": 1, "stat": 1, "readdir": 1, "open_close": 2,
         "creat_unlink": 3, "rename_back": 2, "mkdir_rmdir": 2, "tx3": 5}

#: Largest payload the server rungs carry: the client's stream reader
#: takes lines up to 64 KiB and base64 grows a payload by a third.
WIRE_MAX_PAYLOAD = 32 * 1024


def wire_sized(op: Op) -> bool:
    return max(op.size, op.ref[1] if op.ref else 0) <= WIRE_MAX_PAYLOAD


# --------------------------------------------------------------------------- #
# One logical op, as calls
# --------------------------------------------------------------------------- #


def run_op(rung, op: Op, data):
    """Execute ``op`` on a synchronous rung; returns the rung's raw result
    for the kinds that have one (reads, stat, readdir)."""
    call, kind = rung.call, op.kind
    if kind == "pread":
        return call("pread", rung.fds[op.file], op.size, op.offset)
    if kind == "read_file":
        return call("read_file", op.path)
    if kind == "pwrite":
        return call("pwrite", rung.fds[op.file], data, op.offset)
    if kind == "write_file":
        return call("write_file", op.path, data)
    if kind == "truncate":
        return call("truncate", op.path, op.size)
    if kind == "stat":
        return call("stat", op.path)
    if kind == "readdir":
        return call("readdir", op.path)
    if kind == "open_close":
        return call("close", call("open", op.path))
    if kind == "creat_unlink":
        call("close", call("creat", op.path))
        return call("unlink", op.path)
    if kind == "rename_back":
        call("rename", op.path, op.path2)
        return call("rename", op.path2, op.path)
    if kind == "mkdir_rmdir":
        call("mkdir", op.path)
        return call("rmdir", op.path)
    if kind == "tx3":
        return rung.tx3(op.parts, data)
    raise ValueError(f"unknown op kind {kind!r}")


async def arun_op(rung, op: Op, data):
    """:func:`run_op` for the asynchronous wire rung."""
    call, kind = rung.call, op.kind
    if kind == "pread":
        return await call("pread", rung.fds[op.file], op.size, op.offset)
    if kind == "read_file":
        return await call("read_file", op.path)
    if kind == "pwrite":
        return await call("pwrite", rung.fds[op.file], data, op.offset)
    if kind == "write_file":
        return await call("write_file", op.path, data)
    if kind == "truncate":
        return await call("truncate", op.path, op.size)
    if kind == "stat":
        return await call("stat", op.path)
    if kind == "readdir":
        return await call("readdir", op.path)
    if kind == "open_close":
        return await call("close", await call("open", op.path))
    if kind == "creat_unlink":
        await call("close", await call("creat", op.path))
        return await call("unlink", op.path)
    if kind == "rename_back":
        await call("rename", op.path, op.path2)
        return await call("rename", op.path2, op.path)
    if kind == "mkdir_rmdir":
        await call("mkdir", op.path)
        return await call("rmdir", op.path)
    if kind == "tx3":
        return await rung.tx3(op.parts, data)
    raise ValueError(f"unknown op kind {kind!r}")


# --------------------------------------------------------------------------- #
# In-process rungs
# --------------------------------------------------------------------------- #


class _NoTxTrace:
    """Untraced runs: nothing is recorded around a transaction."""

    def begin(self, name: str) -> None:
        pass

    def end_stage(self) -> None:
        pass

    def end_commit(self, result: dict, parts) -> None:
        pass


class _TxTrace(_NoTxTrace):
    """Traced runs: spans and counts around a transaction's staging and
    its commit (the per-layer ``tx.*`` metrics)."""

    def __init__(self, rec: Recorder, device):
        self.rec = rec
        self.device = device
        self.commits = 0
        self.fences = 0
        self.log_bytes = 0
        self.user_bytes = 0

    def begin(self, name: str) -> None:
        if name == "tx.commit":
            self._fences_before = self.device.stats.fences
        self._idx = self.rec.open(name)
        self._start = perf_counter_ns()

    def end_stage(self) -> None:
        self.rec.close(self._idx, self._start, perf_counter_ns())

    def end_commit(self, result: dict, parts) -> None:
        self.rec.close(self._idx, self._start, perf_counter_ns())
        self.fences += self.device.stats.fences - self._fences_before
        self.commits += 1
        self.log_bytes += result["log_bytes"]
        self.user_bytes += sum(ref[1] for *_x, ref in parts)


class LibfsRung:
    """``session.fs.<method>(*args)``: the LibFS surface itself."""

    name = "libfs"

    def __init__(self, session: Session, fds: Optional[List[int]],
                 rec: Optional[Recorder] = None):
        self.session = session
        self.fds = fds
        self.rec = rec
        self.tx_trace = _NoTxTrace()
        if rec is not None:
            self.tx_trace = _TxTrace(rec, session.volume.device)
            self.call = self._spanned_call(self.call)

    def _spanned_call(self, call: Callable) -> Callable:
        """A span per call, named ``<rung>.<method>``."""
        wrapped = {m: self.rec.wrap(lambda *a, _m=m: call(_m, *a),
                                    f"{self.name}.{m}") for m in PARAMS}
        return lambda method, *args: wrapped[method](*args)

    def call(self, method: str, *args):
        return getattr(self.session.fs, method)(*args)

    def prepare(self, data: bytes):
        """Per-op work outside the timed window (payload encoding)."""
        return data

    def result(self, op: Op, raw):
        """``raw`` in the model's terms, outside the timed window."""
        return raw.size if op.kind == "stat" else raw

    def tx3(self, parts, data):
        # Transactions begin at the facade on every in-process rung:
        # constructing a TxManager anywhere else is banned.
        trace = self.tx_trace
        trace.begin("tx.stage")
        tx = self.session.transaction()
        for (_f, path, offset, _ref), chunk in zip(parts, data):
            tx.pwrite(path, chunk, offset)
        trace.end_stage()
        trace.begin("tx.commit")
        result = tx.commit()
        trace.end_commit(result, parts)
        return result


class ApiRung(LibfsRung):
    """``Session.<method>(*args)``: the facade's forwarding on top."""

    name = "api"

    def call(self, method: str, *args):
        return getattr(self.session, method)(*args)


class DispatchRung(LibfsRung):
    """``SESSION_OPS[method](session, params)``: the server's op table."""

    name = "server.dispatch"

    def _dispatch(self, method: str, params: dict) -> dict:
        return SESSION_OPS[method](self.session, params)

    def call(self, method: str, *args):
        result = self._dispatch(method, dict(zip(PARAMS[method], args)))
        return result["fd"] if method in _OPENS else result

    def prepare(self, data: bytes):
        # base64 is the protocol rung's work; here it is done beforehand.
        return protocol.pack_bytes(data)

    def result(self, op: Op, raw):
        kind = op.kind
        if kind == "stat":
            return raw["size"]
        if kind == "readdir":
            return raw["names"]
        if kind in _READS and isinstance(raw, dict):
            return protocol.unpack_bytes(raw["data"])
        return raw

    def tx3(self, parts, data):
        call, trace = self.call, self.tx_trace
        trace.begin("tx.stage")
        call("tx_begin")
        for (_f, path, offset, _ref), chunk in zip(parts, data):
            call("tx_op", "pwrite", path, chunk, offset)
        trace.end_stage()
        trace.begin("tx.commit")
        result = call("tx_commit")
        trace.end_commit(result, parts)
        return result


class ReleaseRung(DispatchRung):
    """+ ``release_all()`` after every request (``release_after_op``)."""

    name = "server.release"

    def __init__(self, session, fds, rec=None):
        super().__init__(session, fds, rec)
        self.release = session.release_all
        if rec is not None:
            self.release = rec.wrap(session.release_all, "kernel.release")

    def _dispatch(self, method: str, params: dict) -> dict:
        result = SESSION_OPS[method](self.session, params)
        self.release()
        return result


class ProtocolRung(ReleaseRung):
    """+ the frames: request and response encoded, decoded and parsed as
    the client and server do, base64 included, without a socket."""

    name = "server.protocol"

    def __init__(self, session, fds, rec=None):
        super().__init__(session, fds, rec)
        self.encode = protocol.encode_frame
        self.decode = protocol.decode_frame
        if rec is not None:
            self.encode = rec.wrap(self.encode, "server.protocol.encode")
            self.decode = rec.wrap(self.decode, "server.protocol.decode")
        self.requests = 0
        self.wire_bytes = 0

    def call(self, method: str, *args):
        params = dict(zip(PARAMS[method], args))
        if "data" in params:
            params["data"] = protocol.pack_bytes(params["data"])
        self.requests += 1
        sent = self.encode({"id": self.requests, "method": method,
                            "params": params, "session": "t0-1"})
        req = protocol.parse_request(self.decode(sent))
        result = self._dispatch(req["method"], req["params"])
        back = self.encode(protocol.ok_response(req["id"], result))
        result = self.decode(back)["result"]
        self.wire_bytes += len(sent) + len(back)
        if method in _READS:
            return protocol.unpack_bytes(result["data"])
        return result["fd"] if method in _OPENS else result

    def prepare(self, data: bytes):
        return data


# --------------------------------------------------------------------------- #
# The wire
# --------------------------------------------------------------------------- #


class WireRung:
    """One tenant's closed loop: a ``ServerClient`` connection and the
    session it opened.  Retryable rejections are retried by the client's
    own ``call_retry``; how many were is read off ``client.sent``."""

    name = "wire"

    def __init__(self, client: ServerClient, token: str,
                 fds: Optional[List[int]], rec: Optional[Recorder] = None,
                 device=None):
        self.client = client
        self.token = token
        self.fds = fds
        #: ops that gave up after the last retry was rejected too.
        self.exhausted = 0
        self.tx_trace = _NoTxTrace()
        if rec is not None:
            self.tx_trace = _TxTrace(rec, device)
            self.call = rec.awrap(self.call, lambda m, *a: f"wire.{m}")

    async def call(self, method: str, *args):
        params = dict(zip(PARAMS[method], args))
        if "data" in params:
            params["data"] = protocol.pack_bytes(params["data"])
        try:
            result = await self.client.call_retry(
                method, session=self.token, **params)
        except ReproError as exc:
            self.exhausted += bool(getattr(exc, "retryable", False))
            raise
        if method in _READS:
            return protocol.unpack_bytes(result["data"])
        return result["fd"] if method in _OPENS else result

    async def tx3(self, parts, data):
        call, trace = self.call, self.tx_trace
        trace.begin("tx.stage")
        await call("tx_begin")
        for (_f, path, offset, _ref), chunk in zip(parts, data):
            await call("tx_op", "pwrite", path, chunk, offset)
        trace.end_stage()
        trace.begin("tx.commit")
        result = await call("tx_commit")
        trace.end_commit(result, parts)
        return result

    def prepare(self, data: bytes):
        return data

    result = DispatchRung.result


IN_PROCESS_RUNGS = (LibfsRung, ApiRung, DispatchRung, ReleaseRung,
                    ProtocolRung)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #


class Timing:
    """What one closed loop measured: per-op start/end stamps, how many
    ops raised, and the clock that turns the stamps into reference-host
    time (sealed by whoever ran the loop, once every loop on it ended)."""

    def __init__(self, ops: Sequence[Op], clock: HostClock):
        self.ops = ops
        self.clock = clock
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.failed = 0
        self._us: List[float] = []

    def _latencies(self) -> List[float]:
        if not self._us:
            ref_us = self.clock.ref_us
            self._us = [ref_us(start, end)
                        for start, end in zip(self.starts, self.ends)]
        return self._us

    def latencies_us(self, cls: Optional[str] = None) -> List[float]:
        return [us for op, us in zip(self.ops, self._latencies())
                if cls is None or op.cls == cls]

    def by_op(self) -> Dict[int, Tuple[str, float]]:
        """``op_id -> (class, latency in µs)``, the tax ladder's input."""
        return {op.id: (op.cls, us)
                for op, us in zip(self.ops, self._latencies())}


def _materialise(rung, op: Op, pool: bytes):
    if op.ref is not None:
        start, n = op.ref
        return rung.prepare(pool[start:start + n]), pool[start:start + n]
    if op.parts:
        chunks = [pool[ref[0]:ref[0] + ref[1]] for *_x, ref in op.parts]
        return [rung.prepare(c) for c in chunks], chunks
    return None, None


class _Loop:
    """The bookkeeping both closed loops share; everything here runs
    between the stamps of consecutive ops, never inside one."""

    def __init__(self, rung, ops, pool, model, rec, clock):
        self.rung, self.pool, self.model, self.rec = rung, pool, model, rec
        self.timing = Timing(ops, clock)
        clock.tick(perf_counter_ns())

    def before(self, op: Op):
        """Materialise the payload, open the root span."""
        self.data, self.plain = _materialise(self.rung, op, self.pool)
        if self.rec:
            self.root = self.rec.open_op(f"{self.rung.name}.{op.cls}", op.id)
        return self.data

    def after(self, op: Op, start: int, end: int, raw, failed: bool) -> None:
        timing = self.timing
        timing.starts.append(start)
        timing.ends.append(end)
        if self.rec:
            self.rec.close(self.root, start, end)
        if failed:
            timing.failed += 1  # not acknowledged: the model is not told
        elif self.model is not None:
            self.model.apply(op, self.plain, self.rung.result(op, raw))
        timing.clock.tick(perf_counter_ns())


def replay(rung, ops: Sequence[Op], pool: bytes, clock: HostClock,
           model=None, rec: Optional[Recorder] = None) -> Timing:
    """Run ``ops`` closed-loop on a synchronous rung."""
    loop = _Loop(rung, ops, pool, model, rec, clock)
    for op in ops:
        data = loop.before(op)
        raw, failed = None, False
        start = perf_counter_ns()
        try:
            raw = run_op(rung, op, data)
        except ReproError:
            failed = True
        end = perf_counter_ns()
        loop.after(op, start, end, raw, failed)
    return loop.timing


async def areplay(rung: WireRung, ops: Sequence[Op], pool: bytes,
                  clock: HostClock, model=None,
                  rec: Optional[Recorder] = None) -> Timing:
    """:func:`replay` for one wire client; the clients of one run share
    the clock."""
    loop = _Loop(rung, ops, pool, model, rec, clock)
    for op in ops:
        data = loop.before(op)
        raw, failed = None, False
        start = perf_counter_ns()
        try:
            raw = await arun_op(rung, op, data)
        except ReproError:
            failed = True
        end = perf_counter_ns()
        loop.after(op, start, end, raw, failed)
    return loop.timing
