"""The shadow model: what every acknowledged op must have left behind.

``path -> bytes`` for files and ``dir -> names`` for directories.  The
harness applies each acknowledged op here and compares what the program
returned; at the end of a run every file is read back against it, on the
live volume and on the remounted durable image.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .streams import POOL_BYTES, Op, Workload, dir_path, file_path


def initial_content(w: Workload, pool: bytes, f: int) -> bytes:
    """File ``f``'s contents after population (a pool slice, per file)."""
    start = (f * 4099) % (POOL_BYTES - w.file_bytes + 1)
    return pool[start:start + w.file_bytes]


def user_bytes(ops: Sequence[Op]) -> int:
    """Payload bytes the stream writes (the ``pm_write_amp`` denominator)."""
    return sum((op.ref[1] if op.ref else 0) + sum(p[3][1] for p in op.parts)
               for op in ops)


class Model:
    def __init__(self, w: Workload, pool: bytes):
        self.files: Dict[str, bytearray] = {
            file_path(w, f): bytearray(initial_content(w, pool, f))
            for f in range(w.files)}
        self.dirs: Dict[str, List[str]] = {
            dir_path(d): sorted(f"f{k}" for k in range(w.files_per_dir))
            for d in range(w.dirs)}
        #: ops whose returned value differed from the model.
        self.mismatches = 0

    def _pwrite(self, path: str, data: bytes, offset: int) -> None:
        buf = self.files[path]
        if offset > len(buf):
            buf.extend(bytes(offset - len(buf)))
        buf[offset:offset + len(data)] = data

    def apply(self, op: Op, data, out) -> None:
        """Apply one acknowledged op; ``data`` is its materialised payload
        (a list for a transaction), ``out`` what the program returned."""
        kind = op.kind
        if kind == "pread":
            want = self.files[op.path][op.offset:op.offset + op.size]
            self.mismatches += out != want
        elif kind == "read_file":
            self.mismatches += out != self.files[op.path]
        elif kind in ("pwrite", "write_file"):
            # LibFS.write_file overwrites from offset 0 without truncating.
            self._pwrite(op.path, data, op.offset)
        elif kind == "truncate":
            buf = self.files[op.path]
            if op.size <= len(buf):
                del buf[op.size:]
            else:
                buf.extend(bytes(op.size - len(buf)))
        elif kind == "tx3":
            for (_f, path, offset, _ref), chunk in zip(op.parts, data):
                self._pwrite(path, chunk, offset)
        elif kind == "stat":
            self.mismatches += out != len(self.files[op.path])
        elif kind == "readdir":
            self.mismatches += out != self.dirs[op.path]
        # creat_unlink, open_close, rename_back and mkdir_rmdir return
        # nothing and leave the namespace as it was; the final read-back
        # and readdir of every directory check that they did.
