"""Sorted-string tables.

File layout::

    [data block]*  [bloom filter]  [index block]  footer

* data block: concatenated entries ``klen u32 | vlen i32 | seq u64 | key |
  value`` (vlen = -1 encodes a tombstone);
* bloom filter: bit array sized from the key count;
* index block: ``count u32`` then per data block ``first_klen u32 |
  offset u64 | size u32 | first_key``;
* footer: ``bloom_off u64 | bloom_size u32 | index_off u64 | index_size u32
  | entry_count u64 | crc u32 | magic u64``.

Readers keep the index and Bloom filter in memory; ``get`` probes the
filter, bisects the index, and scans one block.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.basefs.base import FileSystem
from repro.kv.options import Options

_ENTRY = struct.Struct("<IiQ")
_IDX_ENTRY = struct.Struct("<IQI")
_FOOTER = struct.Struct("<QIQIQIQ")
MAGIC = 0x4C534D5452454553  # "LSMTREES"


class BloomFilter:
    def __init__(self, nbits: int, bits: Optional[bytearray] = None):
        self.nbits = max(8, nbits)
        self.bits = bits if bits is not None else bytearray((self.nbits + 7) // 8)

    def _probes(self, key: bytes) -> Iterator[int]:
        h1 = zlib.crc32(key)
        h2 = zlib.crc32(key, 0xFFFFFFFF) or 1
        for k in range(4):
            yield (h1 + k * h2) % self.nbits

    def add(self, key: bytes) -> None:
        for bit in self._probes(key):
            self.bits[bit >> 3] |= 1 << (bit & 7)

    def may_contain(self, key: bytes) -> bool:
        return all(self.bits[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(key))

    def pack(self) -> bytes:
        return struct.pack("<I", self.nbits) + bytes(self.bits)

    @classmethod
    def unpack(cls, raw: bytes) -> "BloomFilter":
        (nbits,) = struct.unpack_from("<I", raw)
        return cls(nbits, bytearray(raw[4:]))


def _pack_entry(key: bytes, seq: int, value: Optional[bytes]) -> bytes:
    vlen = -1 if value is None else len(value)
    return _ENTRY.pack(len(key), vlen, seq) + key + (value or b"")


def _iter_entries(raw: bytes) -> Iterator[Tuple[bytes, int, Optional[bytes]]]:
    off = 0
    while off + _ENTRY.size <= len(raw):
        klen, vlen, seq = _ENTRY.unpack_from(raw, off)
        off += _ENTRY.size
        key = raw[off : off + klen]
        off += klen
        if vlen < 0:
            yield key, seq, None
        else:
            yield key, seq, raw[off : off + vlen]
            off += max(vlen, 0)


class SSTableWriter:
    """Builds one table from an already-sorted entry stream."""

    def __init__(self, fs: FileSystem, path: str, options: Options):
        self.fs = fs
        self.path = path
        self.options = options

    def write(self, entries: Iterator[Tuple[bytes, int, Optional[bytes]]]) -> int:
        """Returns the number of entries written."""
        fd = self.fs.open(self.path, create=True)
        try:
            offset = 0
            index: List[Tuple[bytes, int, int]] = []
            block = bytearray()
            first_key: Optional[bytes] = None
            keys: List[bytes] = []
            count = 0

            def flush_block() -> None:
                nonlocal offset, block, first_key
                if not block:
                    return
                self.fs.pwrite(fd, bytes(block), offset)
                index.append((first_key, offset, len(block)))
                offset += len(block)
                block = bytearray()
                first_key = None

            for key, seq, value in entries:
                if first_key is None:
                    first_key = key
                block += _pack_entry(key, seq, value)
                keys.append(key)
                count += 1
                if len(block) >= self.options.block_bytes:
                    flush_block()
            flush_block()

            bloom = BloomFilter(len(keys) * self.options.bloom_bits_per_key)
            for key in keys:
                bloom.add(key)
            bloom_raw = bloom.pack()
            bloom_off = offset
            self.fs.pwrite(fd, bloom_raw, offset)
            offset += len(bloom_raw)

            idx = bytearray(struct.pack("<I", len(index)))
            for fkey, boff, bsize in index:
                idx += _IDX_ENTRY.pack(len(fkey), boff, bsize) + fkey
            index_off = offset
            self.fs.pwrite(fd, bytes(idx), offset)
            offset += len(idx)

            crc = zlib.crc32(bytes(idx)) ^ zlib.crc32(bloom_raw)
            footer = _FOOTER.pack(bloom_off, len(bloom_raw), index_off, len(idx),
                                  count, crc, MAGIC)
            self.fs.pwrite(fd, footer, offset)
            self.fs.fsync(fd)
            return count
        finally:
            self.fs.close(fd)


class SSTable:
    """An open, immutable table."""

    def __init__(self, fs: FileSystem, path: str):
        self.fs = fs
        self.path = path
        size = fs.stat(path).size
        fd = fs.open(path)
        try:
            footer = fs.pread(fd, _FOOTER.size, size - _FOOTER.size)
            (bloom_off, bloom_size, index_off, index_size,
             self.count, crc, magic) = _FOOTER.unpack(footer)
            if magic != MAGIC:
                raise ValueError(f"{path}: bad SSTable magic")
            bloom_raw = fs.pread(fd, bloom_size, bloom_off)
            idx_raw = fs.pread(fd, index_size, index_off)
            if zlib.crc32(idx_raw) ^ zlib.crc32(bloom_raw) != crc:
                raise ValueError(f"{path}: index/bloom checksum mismatch")
            self.bloom = BloomFilter.unpack(bloom_raw)
            (nblocks,) = struct.unpack_from("<I", idx_raw)
            self.index: List[Tuple[bytes, int, int]] = []
            off = 4
            for _ in range(nblocks):
                klen, boff, bsize = _IDX_ENTRY.unpack_from(idx_raw, off)
                off += _IDX_ENTRY.size
                fkey = idx_raw[off : off + klen]
                off += klen
                self.index.append((fkey, boff, bsize))
            self._first_keys = [e[0] for e in self.index]
        finally:
            fs.close(fd)

    def _read_block(self, i: int) -> bytes:
        _fkey, boff, bsize = self.index[i]
        fd = self.fs.open(self.path)
        try:
            return self.fs.pread(fd, bsize, boff)
        finally:
            self.fs.close(fd)

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """(found, value-or-None-if-tombstone)."""
        if not self.index or not self.bloom.may_contain(key):
            return False, None
        i = bisect_right(self._first_keys, key) - 1
        if i < 0:
            return False, None
        for k, _seq, value in _iter_entries(self._read_block(i)):
            if k == key:
                return True, value
            if k > key:
                break
        return False, None

    def __iter__(self) -> Iterator[Tuple[bytes, int, Optional[bytes]]]:
        for i in range(len(self.index)):
            yield from _iter_entries(self._read_block(i))
