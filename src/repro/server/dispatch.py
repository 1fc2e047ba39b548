"""Op dispatch: wire method names onto :class:`repro.api.Session` calls.

Each row of :mod:`repro.ops`, the one declaration of the wire surface,
becomes a handler: it checks the frame's params by their declared types,
calls the Session method and puts what it returns under the row's reply
keys.  File contents stay ``bytes``: frames carry them raw (:mod:`.protocol`).
The surface is deliberately explicit — the server exposes exactly the
table's methods, not ``getattr`` over the whole LibFS — because it is a
*protection boundary*: a tenant drives only the POSIX-shaped ops, not the
release/commit/ownership internals the coordinator manages.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict

from repro import ops
from repro.api import Session
from repro.errors import InvalidArgument, TxError
from repro.server.protocol import pack_bytes, unpack_bytes


def _need(params: Dict, key: str):
    if key not in params:
        raise InvalidArgument(f"missing required param {key!r}")
    return params[key]


# The checks, one per parameter type.  Each reads its param with ``get`` and
# asks ``_need`` only when that finds nothing usable: a call fewer per param.

def _path(params: Dict, param: ops.Param) -> str:
    p = params.get(param.name) or _need(params, param.name)
    # A NUL can never be part of a name: fsck reads a committed dentry
    # carrying one as torn ("body never persisted").
    if not isinstance(p, str) or not p.startswith("/") or "\x00" in p:
        raise InvalidArgument(f"{param.name} must be an absolute path string without NUL bytes")
    return p


#: Each integer type's largest value.  The transaction log packs an
#: ``off_t`` into 64 bits at commit, long after staging accepted it; LibFS a
#: mode into the inode record's 16-bit field mid-create, after the slot is
#: taken; ``session.open`` a uid into the record's 32 bits.
_MAXIMUM = {ops.FD: None, ops.OFF_T: (1 << 63) - 1, ops.MODE: 0o7777, "uid": (1 << 32) - 1}


def _int(params: Dict, param: ops.Param) -> int:
    """Bounds-checked (bools are not ints here); absent is its default."""
    key = param.name
    v = params.get(key, param.default)
    if v is None:
        v = _need(params, key)
    maximum = _MAXIMUM[param.type]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0 \
            or (maximum is not None and v > maximum):
        bound = ">= 0" if maximum is None else f"in [0, {maximum}]"
        raise InvalidArgument(f"{key} must be an integer {bound}")
    return v


CHECKS = {ops.PATH: _path, ops.FD: _int, ops.OFF_T: _int, ops.MODE: _int,
          ops.BYTES: lambda params, p: unpack_bytes(params.get(p.name) or _need(params, p.name)),
          ops.FLAG: lambda params, p: bool(params.get(p.name, False))}


def uid_param(params: Dict, _uid=ops.Param("uid", "uid", 1000)) -> int:
    return _int(params, _uid)


def _handler(row: ops.Op) -> Callable[[object, Dict], Dict]:
    """``handle(target, params) -> reply``: ``target.<method>(*checked)``."""
    method, keys, data = row.method or row.name, row.result, row.result == ops.DATA
    checks = tuple((CHECKS[p.type], p) for p in row.params)
    # Field by field: ``dataclasses.asdict`` deep-copies, and took about as
    # long as the stat itself.
    fields = attrgetter(*keys) if len(keys) > 1 and not data else None

    def handle(target, params: Dict) -> Dict:
        args = []
        for check, param in checks:
            args.append(check(params, param))
        ret = getattr(target, method)(*args)
        if fields is not None:
            return dict(zip(keys, fields(ret)))
        if data:
            return {"data": pack_bytes(ret), "n": len(ret)}
        return {keys[0]: ret} if keys else {}

    return handle


# --------------------------------------------------------------------------- #
# Transactions: one pending Tx per wire session
# --------------------------------------------------------------------------- #
#
# The handle lives on the Session object between requests (ops run one at
# a time on the server's loop, so there is no request-level race).
# Error typing rides the existing wire contract: ``TxAborted`` serializes
# with ``retryable=True`` (the volume is as if the tx never ran — rebuild
# and re-issue), ``TxCommitPending`` with ``retryable=False`` (the volume
# must remount to roll forward).

_TX_ATTR = "_wire_tx"
_STAGE = {name: _handler(row) for name, row in ops.TX_OPS.items()}


def _pending_tx(fs: Session):
    tx = fs.__dict__.get(_TX_ATTR)
    if tx is None:
        raise TxError("no transaction open on this session")
    return tx


def op_tx_begin(fs: Session, p: Dict):
    if fs.__dict__.get(_TX_ATTR) is not None:
        raise TxError("a transaction is already open on this session")
    tx = fs.transaction()
    fs.__dict__[_TX_ATTR] = tx
    return {"txid": tx.txid}


def op_tx_op(fs: Session, p: Dict):
    """Stage the sub-op row ``p["op"]`` names."""
    tx = _pending_tx(fs)
    op = p.get("op") or _need(p, "op")
    stage = _STAGE.get(op) if isinstance(op, str) else None
    if stage is None:
        raise InvalidArgument(f"unknown transaction op {op!r}")
    stage(tx, p)
    return {"ops": len(tx.ops)}


def op_tx_commit(fs: Session, p: Dict):
    tx = _pending_tx(fs)
    # Wire sessions share the volume and keep what they own between
    # requests, so conflicts are met first, while the op can still be
    # re-run: a TryAgain out of prepare() leaves the transaction open
    # (nothing has touched PM), the server recalls the holder and calls
    # this again (DESIGN §10).
    tx.prepare()
    # From here the handle is single-shot: whatever commit does (success,
    # rollback, roll-forward-pending) it leaves the open state, so drop it
    # first — a client retrying after TxAborted begins a fresh transaction.
    fs.__dict__[_TX_ATTR] = None
    return tx.commit()


def op_tx_abort(fs: Session, p: Dict):
    tx = _pending_tx(fs)
    fs.__dict__[_TX_ATTR] = None
    tx.abort()
    return {}


_TX = dict(tx_begin=op_tx_begin, tx_op=op_tx_op, tx_commit=op_tx_commit, tx_abort=op_tx_abort)

#: method name → handler.  Every entry runs in the read that brought it,
#: against an admitted, lease-refreshed session.
SESSION_OPS: Dict[str, Callable[[Session, Dict], Dict]] = {
    name: _TX.get(name) or _handler(row) for name, row in ops.METHODS.items()}
