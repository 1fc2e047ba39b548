"""Write-ahead log.

Every mutation is appended as a CRC-protected record before it touches the
memtable; replay on open reconstructs the unflushed tail of the database.

Record layout::

    crc u32 | seq u64 | op u8 | klen u32 | vlen u32 | key | value

``crc`` covers everything after itself.  Replay stops at the first record
whose CRC fails (the torn tail of a crash).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Tuple

from repro.basefs.base import FileSystem

#: Record header: ``crc u32 | seq u64 | op u8 | klen u32 | vlen u32``.
#: Shared framing — the transaction redo log (``repro.tx``) reuses it for
#: its on-PM records, so one CRC/parse discipline covers both logs.
RECORD_HDR = struct.Struct("<IQBII")
_HDR = RECORD_HDR
OP_PUT = 1
OP_DELETE = 2


_CRC = struct.Struct("<I")
#: The header after its CRC field.
_REST = struct.Struct("<QBII")


def frame_record(seq: int, op: int, key: bytes, value: bytes) -> bytes:
    """Serialize one record; the leading CRC covers everything after it."""
    return b"".join((*frame_parts(seq, op, key, value), key, value))


def frame_parts(seq: int, op: int, key: bytes, value: bytes) -> Tuple[bytes, bytes]:
    """The record's CRC field and the rest of its header: the record is
    ``crc + rest + key + value``.  The CRC is chained over the pieces, so
    a caller joining many records copies each key and value once, in its
    own join."""
    rest = _REST.pack(seq, op, len(key), len(value))
    return _CRC.pack(zlib.crc32(value, zlib.crc32(key, zlib.crc32(rest)))), rest


def parse_record(buf: bytes, off: int):
    """Parse the record at ``off`` in ``buf``.

    Returns ``(seq, op, key, value, next_off)``, or ``None`` if the record
    is truncated or its CRC fails (the torn tail of a crashed append).
    """
    if off + _HDR.size > len(buf):
        return None
    crc, seq, op, klen, vlen = _HDR.unpack_from(buf, off)
    body_len = _HDR.size - 4 + klen + vlen
    body = buf[off + 4 : off + 4 + body_len]
    if len(body) < body_len or zlib.crc32(body) != crc:
        return None
    key = body[_HDR.size - 4 : _HDR.size - 4 + klen]
    value = body[_HDR.size - 4 + klen :]
    return seq, op, key, value, off + 4 + body_len


class WALWriter:
    def __init__(self, fs: FileSystem, path: str, sync: bool = True):
        self.fs = fs
        self.path = path
        self.sync = sync
        self._fd = fs.open(path, create=True)
        self._offset = fs.stat(path).size

    def append(self, seq: int, op: int, key: bytes, value: bytes) -> None:
        record = frame_record(seq, op, key, value)
        self.fs.pwrite(self._fd, record, self._offset)
        self._offset += len(record)
        if self.sync:
            self.fs.fsync(self._fd)

    @property
    def nbytes(self) -> int:
        return self._offset

    def close(self) -> None:
        self.fs.close(self._fd)


def replay(fs: FileSystem, path: str) -> Iterator[Tuple[int, int, bytes, bytes]]:
    """Yield (seq, op, key, value) for every intact record."""
    if not fs.exists(path):
        return
    size = fs.stat(path).size
    fd = fs.open(path)
    try:
        off = 0
        while off + _HDR.size <= size:
            hdr = fs.pread(fd, _HDR.size, off)
            if len(hdr) < _HDR.size:
                return
            crc, seq, op, klen, vlen = _HDR.unpack(hdr)
            body_len = _HDR.size - 4 + klen + vlen
            body = fs.pread(fd, body_len, off + 4)
            if len(body) < body_len or zlib.crc32(body) != crc:
                return  # torn tail
            key = body[_HDR.size - 4 : _HDR.size - 4 + klen]
            value = body[_HDR.size - 4 + klen :]
            yield seq, op, key, value
            off += 4 + body_len
    finally:
        fs.close(fd)
