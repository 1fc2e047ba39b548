"""The op table: one declaration of what a tenant may ask of a volume.

One row per wire method a session serves and one per sub-op a transaction
stages: its name, its typed parameters (in the positional order of the
:class:`~repro.api.Session` / :class:`~repro.tx.Tx` method of that name),
its reply's keys, the redo-log kind a sub-op records (``write_file`` stages
a create or truncate plus a pwrite: none) and the typed errors it may raise.
Read by the wire handlers (:mod:`repro.server.dispatch`), by the kind check
of :func:`repro.tx.log.parse_log` and by the server fuzz.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Tuple, Type

from repro.errors import (BadFileDescriptor, ChainCorrupt, Exists, InvalidArgument, IsADir,
                          NameTooLong, NoEntry, NoSpace, NotADir, NotEmpty, PermissionDenied,
                          ProtocolError, ReproError, TryAgain, TxAborted, TxCommitPending,
                          TxError, WouldLoop)
from repro.tx.log import TX_CREATE, TX_MKDIR, TX_PWRITE, TX_RENAME, TX_TRUNCATE, TX_UNLINK

PATH = "path"    # an absolute path string without NUL bytes
FD = "fd"        # a descriptor: an integer >= 0
OFF_T = "off_t"  # an offset or length: an integer in [0, 2**63 - 1]
MODE = "mode"    # permission bits in [0, 0o7777], with a default
BYTES = "bytes"  # a raw payload; null is empty
FLAG = "flag"    # any truthy value sets it; absent is clear
SUBOP = "subop"  # the name of a transaction sub-op row


class Param(NamedTuple):
    name: str
    type: str = PATH
    default: Optional[int] = None  # a mode's, when a request leaves it out


class Op(NamedTuple):
    name: str
    params: Tuple[Param, ...]
    #: the reply's keys: none; one, holding the return value; DATA for a
    #: read's bytes and their length; or the return value's fields.
    result: Tuple[str, ...]
    errors: FrozenSet[Type[ReproError]]
    tx: bool = False              # a sub-op ``tx_op`` stages
    kind: Optional[int] = None    # the redo-log kind the sub-op records
    method: Optional[str] = None  # the Session method, if not ``name``


DATA = ("data", "n")
STAT = ("ino", "itype", "size", "mode", "uid", "gen")
_PATH, _DATA, _FD = (Param("path"),), Param("data", BYTES), Param("fd", FD)
_OFFSET, _SIZE = Param("offset", OFF_T), Param("size", OFF_T)
_CREATE, _MKDIR = Param("mode", MODE, 0o664), Param("mode", MODE, 0o775)
_RENAME = (Param("old"), Param("new"))

# What each op may raise, built up from a parameter check's.
_CHECKED = frozenset({InvalidArgument})
_BY_FD = _CHECKED | {BadFileDescriptor, TryAgain}
_WALK = _CHECKED | {NoEntry, NotADir, NameTooLong, PermissionDenied, TryAgain, ChainCorrupt}
_MAKE = _WALK | {Exists, NoSpace}
_FILE = _WALK | {IsADir}
_WRITE = _FILE | {NoSpace, ProtocolError}
_STAGE = _WALK | {TxError, Exists, IsADir}

OPS: Tuple[Op, ...] = (
    Op("open", (*_PATH, Param("create", FLAG), _CREATE), ("fd",), _MAKE | {IsADir}),
    Op("creat", (*_PATH, _CREATE), ("fd",), _MAKE | {IsADir}),
    Op("close", (_FD,), (), _BY_FD),
    Op("mkdir", (*_PATH, _MKDIR), (), _MAKE),
    Op("makedirs", _PATH, (), _MAKE),
    Op("pread", (_FD, Param("n", OFF_T), _OFFSET), DATA, _BY_FD),
    Op("pwrite", (_FD, _DATA, _OFFSET), ("written",), _BY_FD | {NoSpace, ProtocolError}),
    Op("read_file", _PATH, DATA, _FILE),
    Op("write_file", (*_PATH, _DATA), ("written",), _WRITE | {Exists}),
    Op("rename", _RENAME, (), _MAKE | {IsADir, NotEmpty, WouldLoop}),
    Op("stat", _PATH, STAT, _WALK),
    Op("readdir", _PATH, ("names",), _WALK),
    Op("exists", _PATH, ("exists",), _WALK),
    Op("unlink", _PATH, (), _FILE),
    Op("rmdir", _PATH, (), _WALK | {NotEmpty}),
    Op("truncate", (*_PATH, _SIZE), (), _WRITE),
    Op("fsync", (_FD,), (), _BY_FD),
    Op("release", (), (), frozenset(), method="release_all"),
    Op("tx_begin", (), ("txid",), frozenset({TxError})),
    Op("tx_op", (Param("op", SUBOP),), ("ops",), _CHECKED | {TxError}),
    Op("tx_commit", (), ("ops", "log_pages", "log_bytes"),
       frozenset({TxError, TxAborted, TxCommitPending, TryAgain})),
    Op("tx_abort", (), (), frozenset({TxError})),
    # Transaction sub-ops: a pwrite names its file by path.
    Op("create", (*_PATH, _CREATE), (), _STAGE, tx=True, kind=TX_CREATE),
    Op("mkdir", (*_PATH, _MKDIR), (), _STAGE, tx=True, kind=TX_MKDIR),
    Op("pwrite", (*_PATH, _DATA, _OFFSET), (), _STAGE | {ProtocolError}, tx=True, kind=TX_PWRITE),
    Op("write_file", (*_PATH, _DATA), (), _STAGE | {ProtocolError}, tx=True),
    Op("truncate", (*_PATH, _SIZE), (), _STAGE, tx=True, kind=TX_TRUNCATE),
    Op("rename", _RENAME, (), _STAGE, tx=True, kind=TX_RENAME),
    Op("unlink", _PATH, (), _STAGE, tx=True, kind=TX_UNLINK),
)

METHODS = {op.name: op for op in OPS if not op.tx}
TX_OPS = {op.name: op for op in OPS if op.tx}
#: The redo-log kinds a sealed log's records may carry.
TX_KINDS = frozenset(op.kind for op in OPS if op.kind is not None)
