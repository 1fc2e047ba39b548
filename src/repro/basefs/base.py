"""The common file-system interface every evaluated system implements.

This mirrors the subset of POSIX the paper's workloads use.  The ArckFS
LibFS (:class:`repro.libfs.libfs.LibFS`) satisfies it structurally (same
method names and semantics); the baselines in this package implement it
directly.  Workloads and the KV store are written against this interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from repro.libfs.libfs import StatResult


class FileSystem(ABC):
    """POSIX-like path API: the workload-facing contract."""

    name = "abstract"

    # -- files ----------------------------------------------------------- #

    @abstractmethod
    def creat(self, path: str, mode: int = 0o664) -> int:
        """Create a regular file, returning an open fd."""

    @abstractmethod
    def open(self, path: str, create: bool = False, mode: int = 0o664) -> int:
        ...

    @abstractmethod
    def close(self, fd: int) -> None:
        ...

    @abstractmethod
    def pread(self, fd: int, n: int, offset: int) -> bytes:
        ...

    @abstractmethod
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        ...

    @abstractmethod
    def fsync(self, fd: int) -> None:
        ...

    @abstractmethod
    def unlink(self, path: str) -> None:
        ...

    @abstractmethod
    def truncate(self, path: str, size: int) -> None:
        ...

    # -- directories ----------------------------------------------------- #

    @abstractmethod
    def mkdir(self, path: str, mode: int = 0o775) -> None:
        ...

    @abstractmethod
    def rmdir(self, path: str) -> None:
        ...

    @abstractmethod
    def readdir(self, path: str) -> List[str]:
        ...

    @abstractmethod
    def rename(self, oldpath: str, newpath: str) -> None:
        ...

    @abstractmethod
    def stat(self, path: str) -> StatResult:
        ...

    # -- conveniences shared by all implementations ----------------------- #

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except OSError:
            return False

    def write_file(self, path: str, data: bytes) -> int:
        fd = self.open(path, create=True)
        try:
            written = self.pwrite(fd, data, 0)
            self.fsync(fd)
            return written
        finally:
            self.close(fd)

    def read_file(self, path: str) -> bytes:
        fd = self.open(path)
        try:
            size = self.stat(path).size
            return self.pread(fd, size, 0)
        finally:
            self.close(fd)

    def makedirs(self, path: str) -> None:
        from repro.libfs import paths as _paths

        cur = ""
        for p in _paths.parse(path):
            cur += "/" + p
            if not self.exists(cur):
                self.mkdir(cur)
