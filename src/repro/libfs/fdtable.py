"""File-descriptor table of one LibFS instance."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import BadFileDescriptor
from repro.libfs.inode import MemInode


@dataclass
class FileDescriptor:
    fd: int
    mi: MemInode
    readable: bool = True
    writable: bool = True
    offset: int = 0
    closed: bool = False
    _offset_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def advance(self, n: int) -> int:
        """Atomically fetch-and-add the file offset; returns the old value."""
        with self._offset_lock:
            old = self.offset
            self.offset += n
            return old


class FDTable:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fds: Dict[int, FileDescriptor] = {}
        self._next = 3  # 0-2 reserved, as tradition demands

    def install(self, mi: MemInode, readable: bool = True,
                writable: bool = True) -> FileDescriptor:
        with self._lock:
            fd = self._next
            self._next += 1
            entry = FileDescriptor(fd=fd, mi=mi, readable=readable,
                                   writable=writable)
            self._fds[fd] = entry
            return entry

    def get(self, fd: int) -> FileDescriptor:
        with self._lock:
            entry = self._fds.get(fd)
        if entry is None or entry.closed:
            raise BadFileDescriptor(f"fd {fd}")
        return entry

    def close(self, fd: int) -> FileDescriptor:
        with self._lock:
            entry = self._fds.pop(fd, None)
        if entry is None:
            raise BadFileDescriptor(f"fd {fd}")
        entry.closed = True
        return entry

    def rebind(self, old: MemInode, new: MemInode) -> None:
        """Point every descriptor on ``old`` at ``new``: the same file, its
        MemInode rebuilt."""
        with self._lock:
            for entry in self._fds.values():
                if entry.mi is old:
                    entry.mi = new

    def open_count(self, ino: Optional[int] = None) -> int:
        with self._lock:
            if ino is None:
                return len(self._fds)
            return sum(1 for e in self._fds.values() if e.mi.ino == ino)

    def close_all(self) -> None:
        with self._lock:
            for entry in self._fds.values():
                entry.closed = True
            self._fds.clear()
