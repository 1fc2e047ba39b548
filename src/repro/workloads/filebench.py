"""Filebench personalities: Webproxy and Varmail (§5.3).

Two framework variants, exactly as the paper discusses:

* ``private`` — the Trio artifact's modification: each thread works in its
  own directory, sidestepping the original Filebench's whole-fileset lock
  (but "deviating from the original workload semantics");
* ``shared`` — the paper's **new framework**: one shared directory as in
  original Filebench, with contention tamed by *fine-grained locks on
  filenames* instead of a lock over the entire fileset.

Both forms exist: the functional engine executes flowops against any
FileSystem; the simulation form feeds the DES the same operation mix, with
per-filename lock names in shared mode.

Personalities (flowop loops modelled on Filebench's shipped .f files):

* **Webproxy**: delete + create + append one file, then open/read/close
  five files.
* **Varmail** (mail server): delete; create + append + fsync; open +
  read + append + fsync; open + read.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.basefs.base import FileSystem

MEAN_FILE_SIZE = 16 * 1024
APPEND_SIZE = 8 * 1024
NFILES = 64  # fileset size per directory
FLOCK_BUCKETS = 256  # fine-grained filename locks of the new framework


def _h(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


# --------------------------------------------------------------------------- #
# Personalities as primitive-op sequences
# --------------------------------------------------------------------------- #

#: each step: (op, size) where op ∈ create/unlink/open/read/append/fsync/close
WEBPROXY_LOOP: List[Tuple[str, int]] = (
    [("unlink", 0), ("create", 0), ("append", APPEND_SIZE), ("close", 0)]
    + [("open", 0), ("read", MEAN_FILE_SIZE), ("close", 0)] * 5
)

VARMAIL_LOOP: List[Tuple[str, int]] = [
    ("unlink", 0),
    ("create", 0), ("append", APPEND_SIZE), ("fsync", 0), ("close", 0),
    ("open", 0), ("read", MEAN_FILE_SIZE), ("append", APPEND_SIZE),
    ("fsync", 0), ("close", 0),
    ("open", 0), ("read", MEAN_FILE_SIZE), ("close", 0),
]


@dataclass
class FilebenchPersonality:
    name: str
    loop: List[Tuple[str, int]]


WEBPROXY = FilebenchPersonality("webproxy", WEBPROXY_LOOP)
VARMAIL = FilebenchPersonality("varmail", VARMAIL_LOOP)
PERSONALITIES = {"webproxy": WEBPROXY, "varmail": VARMAIL}


# --------------------------------------------------------------------------- #
# Simulation form
# --------------------------------------------------------------------------- #


@dataclass
class FilebenchSim:
    """DES workload: one personality in one framework variant."""

    personality: FilebenchPersonality
    shared: bool  # the paper's new shared-directory framework?

    @property
    def name(self) -> str:
        return f"{self.personality.name}-{'shared' if self.shared else 'private'}"

    def op_ctx(self, tid: int, i: int, nthreads: int) -> Dict:
        step, size = self.personality.loop[i % len(self.personality.loop)]
        dirid = "shared" if self.shared else f"p{tid}"
        fileno = _h(tid, i // len(self.personality.loop)) % NFILES
        ctx: Dict = {"dir": dirid, "depth": 1, "shared": self.shared,
                     "bucket": _h(dirid, fileno) % 256}
        if step == "create":
            ctx["op"] = "create"
            ctx["tail"] = tid % 32
        elif step == "unlink":
            ctx["op"] = "unlink"
        elif step == "open":
            ctx["op"] = "open"
            ctx["depth"] = 1
        elif step in ("read", "append"):
            ctx["op"] = "read" if step == "read" else "write"
            ctx["size"] = size
        elif step in ("fsync", "close"):
            # fsync returns immediately on ArckFS (§2.2); a kernel FS still
            # pays the syscall.
            ctx["op"] = "nop"
        if self.shared:
            # The new framework's per-filename lock (taken by the engine
            # around every namespace op on that file).
            ctx["flock"] = _h(dirid, fileno) % FLOCK_BUCKETS
        return ctx


# --------------------------------------------------------------------------- #
# Functional engine
# --------------------------------------------------------------------------- #


class FilebenchEngine:
    """Executes a personality against a real FileSystem.

    In ``shared`` mode all threads use one directory and the engine
    serializes per *filename* (the paper's framework); in ``private`` mode
    each thread owns a directory (the Trio artifact's variant).
    """

    def __init__(self, fs: FileSystem, personality: FilebenchPersonality,
                 nthreads: int = 1, shared: bool = True):
        self.fs = fs
        self.personality = personality
        self.nthreads = nthreads
        self.shared = shared
        self._flocks = [threading.Lock() for _ in range(FLOCK_BUCKETS)]
        self.ops = 0
        self.loops = 0
        self._ops_lock = threading.Lock()

    # -- fileset ----------------------------------------------------------- #

    def prepare(self) -> None:
        if self.shared:
            self.fs.makedirs("/fileset")
            for j in range(NFILES):
                self.fs.write_file(f"/fileset/f{j:05d}", b"x" * 1024)
        else:
            for tid in range(self.nthreads):
                self.fs.makedirs(f"/fileset{tid}")
                for j in range(NFILES):
                    self.fs.write_file(f"/fileset{tid}/f{j:05d}", b"x" * 1024)

    def _dir(self, tid: int) -> str:
        return "/fileset" if self.shared else f"/fileset{tid}"

    def _filename_lock(self, path: str) -> Optional[threading.Lock]:
        if not self.shared:
            return None
        return self._flocks[_h(path) % FLOCK_BUCKETS]

    # -- one loop iteration ------------------------------------------------ #

    def run_loop(self, tid: int, iteration: int) -> None:
        fileno = _h(tid, iteration) % NFILES
        path = f"{self._dir(tid)}/f{fileno:05d}"
        lock = self._filename_lock(path)
        fd: Optional[int] = None
        if lock:
            lock.acquire()
        try:
            for step, size in self.personality.loop:
                if step == "unlink":
                    if self.fs.exists(path):
                        self.fs.unlink(path)
                elif step == "create":
                    fd = self.fs.creat(path)
                elif step == "open":
                    fd = self.fs.open(path, create=True)
                elif step == "append":
                    if fd is not None:
                        end = self.fs.stat(path).size
                        self.fs.pwrite(fd, b"a" * min(size, 2048), end)
                elif step == "read":
                    if fd is not None:
                        self.fs.pread(fd, min(size, 4096), 0)
                elif step == "fsync":
                    if fd is not None:
                        self.fs.fsync(fd)
                elif step == "close":
                    if fd is not None:
                        self.fs.close(fd)
                        fd = None
                with self._ops_lock:
                    self.ops += 1
        finally:
            if fd is not None:
                self.fs.close(fd)
            if lock:
                lock.release()
        with self._ops_lock:
            self.loops += 1

    def run(self, loops_per_thread: int = 8) -> int:
        """Run the full benchmark; returns total flowops executed."""
        self.prepare()
        if self.nthreads == 1:
            for i in range(loops_per_thread):
                self.run_loop(0, i)
            return self.ops
        errors: List[BaseException] = []

        def worker(tid: int) -> None:
            try:
                for i in range(loops_per_thread):
                    self.run_loop(tid, i)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return self.ops


#: the four simulated configurations of §5.3.
FILEBENCH_SIMS = {
    "webproxy-shared": FilebenchSim(WEBPROXY, shared=True),
    "webproxy-private": FilebenchSim(WEBPROXY, shared=False),
    "varmail-shared": FilebenchSim(VARMAIL, shared=True),
    "varmail-private": FilebenchSim(VARMAIL, shared=False),
}
