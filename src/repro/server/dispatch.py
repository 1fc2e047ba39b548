"""Op dispatch: wire method names onto :class:`repro.api.Session` calls.

The data-path methods a client may invoke on a session, each a thin
adapter from frame params to the LibFS surface and back to a frame result.
File contents stay ``bytes``: frames carry them raw (:mod:`.protocol`).

The table is deliberately explicit — the server exposes exactly these
methods, not ``getattr`` over the whole LibFS — because the wire surface
is a *protection boundary*: a tenant drives only the POSIX-shaped ops, not
the release/commit/ownership internals the coordinator manages.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.api import Session
from repro.errors import InvalidArgument, TxError
from repro.server.protocol import pack_bytes, unpack_bytes


def _need(params: Dict, key: str):
    if key not in params:
        raise InvalidArgument(f"missing required param {key!r}")
    return params[key]


def _path(params: Dict, key: str = "path") -> str:
    p = _need(params, key)
    # A NUL can never be part of a name: fsck reads a committed dentry
    # carrying one as torn ("body never persisted").
    if not isinstance(p, str) or not p.startswith("/") or "\x00" in p:
        raise InvalidArgument(
            f"{key} must be an absolute path string without NUL bytes")
    return p


def _int(params: Dict, key: str, minimum: int = 0,
         maximum: Optional[int] = None, default: Optional[int] = None) -> int:
    """``params[key]`` as a bounds-checked int (bools are not ints here);
    an absent key is an error unless ``default`` is given."""
    v = _need(params, key) if default is None else params.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum \
            or (maximum is not None and v > maximum):
        bound = f">= {minimum}" if maximum is None \
            else f"in [{minimum}, {maximum}]"
        raise InvalidArgument(f"{key} must be an integer {bound}")
    return v


def _off(params: Dict, key: str) -> int:
    """A file offset or length: a POSIX ``off_t`` (the transaction log
    packs it into 64 bits at commit, long after staging accepted it)."""
    return _int(params, key, maximum=(1 << 63) - 1)


def _mode(params: Dict, default: int) -> int:
    """Permission bits.  Checked here because LibFS packs them into the
    inode record's 16-bit field mid-create, after the slot is taken."""
    return _int(params, "mode", maximum=0o7777, default=default)


def uid_param(params: Dict) -> int:
    """``session.open``'s uid: the inode record stores 32 bits."""
    return _int(params, "uid", maximum=(1 << 32) - 1, default=1000)


def op_open(fs: Session, p: Dict):
    fd = fs.open(_path(p), create=bool(p.get("create", False)),
                 mode=_mode(p, 0o664))
    return {"fd": fd}


def op_creat(fs: Session, p: Dict):
    return {"fd": fs.creat(_path(p), mode=_mode(p, 0o664))}


def op_close(fs: Session, p: Dict):
    fs.close(_int(p, "fd"))
    return {}


def op_mkdir(fs: Session, p: Dict):
    fs.mkdir(_path(p), mode=_mode(p, 0o775))
    return {}


def op_makedirs(fs: Session, p: Dict):
    fs.makedirs(_path(p))
    return {}


def op_pread(fs: Session, p: Dict):
    data = fs.pread(_int(p, "fd"), _off(p, "n"), _off(p, "offset"))
    return {"data": pack_bytes(data), "n": len(data)}


def op_pwrite(fs: Session, p: Dict):
    data = unpack_bytes(_need(p, "data"))
    return {"written": fs.pwrite(_int(p, "fd"), data, _off(p, "offset"))}


def op_read_file(fs: Session, p: Dict):
    data = fs.read_file(_path(p))
    return {"data": pack_bytes(data), "n": len(data)}


def op_write_file(fs: Session, p: Dict):
    data = unpack_bytes(_need(p, "data"))
    fs.write_file(_path(p), data)
    return {"written": len(data)}


def op_rename(fs: Session, p: Dict):
    fs.rename(_path(p, "old"), _path(p, "new"))
    return {}


def op_stat(fs: Session, p: Dict):
    # Field by field: ``dataclasses.asdict`` deep-copies, and took about as
    # long as the stat itself.
    st = fs.stat(_path(p))
    return {"ino": st.ino, "itype": st.itype, "size": st.size,
            "mode": st.mode, "uid": st.uid, "gen": st.gen}


def op_readdir(fs: Session, p: Dict):
    return {"names": fs.readdir(_path(p))}


def op_exists(fs: Session, p: Dict):
    return {"exists": fs.exists(_path(p))}


def op_unlink(fs: Session, p: Dict):
    fs.unlink(_path(p))
    return {}


def op_rmdir(fs: Session, p: Dict):
    fs.rmdir(_path(p))
    return {}


def op_truncate(fs: Session, p: Dict):
    fs.truncate(_path(p), _off(p, "size"))
    return {}


def op_fsync(fs: Session, p: Dict):
    fs.fsync(_int(p, "fd"))
    return {}


def op_release(fs: Session, p: Dict):
    """Release ownership of everything the session holds (tenant-visible
    cost control; the same thing session close does implicitly)."""
    fs.release_all()
    return {}


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
    tx = _pending_tx(fs)
    op = _need(p, "op")
    if op == "create":
        tx.create(_path(p), mode=_mode(p, 0o664))
    elif op == "mkdir":
        tx.mkdir(_path(p), mode=_mode(p, 0o775))
    elif op == "pwrite":
        tx.pwrite(_path(p), unpack_bytes(_need(p, "data")),
                  _off(p, "offset"))
    elif op == "write_file":
        tx.write_file(_path(p), unpack_bytes(_need(p, "data")))
    elif op == "truncate":
        tx.truncate(_path(p), _off(p, "size"))
    elif op == "rename":
        tx.rename(_path(p, "old"), _path(p, "new"))
    elif op == "unlink":
        tx.unlink(_path(p))
    else:
        raise InvalidArgument(f"unknown transaction op {op!r}")
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


#: method name → adapter.  Every entry runs in the read that brought it,
#: against an admitted, lease-refreshed session.
SESSION_OPS: Dict[str, Callable[[Session, Dict], Dict]] = {
    "open": op_open,
    "creat": op_creat,
    "close": op_close,
    "mkdir": op_mkdir,
    "makedirs": op_makedirs,
    "pread": op_pread,
    "pwrite": op_pwrite,
    "read_file": op_read_file,
    "write_file": op_write_file,
    "rename": op_rename,
    "stat": op_stat,
    "readdir": op_readdir,
    "exists": op_exists,
    "unlink": op_unlink,
    "rmdir": op_rmdir,
    "truncate": op_truncate,
    "fsync": op_fsync,
    "release": op_release,
    "tx_begin": op_tx_begin,
    "tx_op": op_tx_op,
    "tx_commit": op_tx_commit,
    "tx_abort": op_tx_abort,
}
