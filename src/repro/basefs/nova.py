"""NOVA and OdinFS models.

NOVA is a log-structured PM kernel FS: every metadata operation appends a
record to the owning inode's per-inode log; directory contents and file
metadata are reconstructed by replaying the log.  We implement the log for
real (append records into a per-inode page chain, rebuild on ``remount``),
because LogFS-style recovery semantics matter for the sharing-cost
comparison (Table 4 uses NOVA as the kernel-FS baseline).

OdinFS (same authors as Trio) adds *opportunistic delegation*: data
operations beyond a size threshold are handed to per-socket delegation
threads that perform the PM access NUMA-locally.  Functionally we model
the delegation queue (a pool of worker threads doing the actual copies);
the performance benefit (NUMA-local access, parallel copies) is carried by
the cost model.
"""

from __future__ import annotations

import queue
import struct
import threading
from typing import Dict, List, Tuple

from repro.basefs.vfs import VFSKernelFS, _VNode
from repro.pm.device import PMDevice
from repro.pm.layout import PAGE_SIZE, PAGEHDR_SIZE, PageHeader

#: log record: kind u8, itype u8, name_len u16, child u32, size u64
_LOG_REC = struct.Struct("<BBHIQ")
LOG_CREATE = 1
LOG_UNLINK = 2
LOG_RESIZE = 3


class NovaFS(VFSKernelFS):
    name = "nova"

    def __init__(self, device: PMDevice, inode_count: int = 4096):
        #: per-inode metadata log: ino -> (head page, tail page, used)
        self._logs: Dict[int, List[int]] = {}
        self._log_tail: Dict[int, Tuple[int, int]] = {}
        self._log_lock = threading.Lock()
        super().__init__(device, inode_count=inode_count)

    # -- per-inode log ------------------------------------------------------ #

    def _log_append(self, ino: int, kind: int, itype: int, name: bytes,
                    child: int, size: int) -> None:
        rec = _LOG_REC.pack(kind, itype, len(name), child, size) + name
        rec = rec.ljust((len(rec) + 7) // 8 * 8, b"\0")
        with self._log_lock:
            pages = self._logs.setdefault(ino, [])
            tail, used = self._log_tail.get(ino, (0, 0))
            if tail == 0 or used + len(rec) > PAGE_SIZE - PAGEHDR_SIZE:
                new_page = self.alloc.alloc()
                self.device.store(self.geom.page_off(new_page),
                                  PageHeader(0, 0, 3).pack())
                if tail:
                    self.device.store(self.geom.page_off(tail),
                                      struct.pack("<Q", new_page))
                    self.device.persist(self.geom.page_off(tail), 8)
                pages.append(new_page)
                tail, used = new_page, 0
            addr = self.geom.page_off(tail) + PAGEHDR_SIZE + used
            self.device.store(addr, rec)
            self.device.persist(addr, len(rec))
            self._log_tail[ino] = (tail, used + len(rec))
            self.stats.log_appends += 1

    def replay_log(self, ino: int) -> List[Tuple[int, int, bytes, int, int]]:
        """Decode an inode's metadata log (recovery / audit helper)."""
        out = []
        for page in self._logs.get(ino, []):
            base = self.geom.page_off(page) + PAGEHDR_SIZE
            off = 0
            while off + _LOG_REC.size <= PAGE_SIZE - PAGEHDR_SIZE:
                raw = self.device.load(base + off, _LOG_REC.size)
                kind, itype, name_len, child, size = _LOG_REC.unpack_from(raw)
                if kind == 0:
                    break
                name = self.device.load(base + off + _LOG_REC.size, name_len)
                out.append((kind, itype, name, child, size))
                total = _LOG_REC.size + name_len
                off += (total + 7) // 8 * 8
        return out

    # -- hook the log into the namespace operations ------------------------- #

    def _create_common(self, path: str, mode: int, itype: int) -> _VNode:
        vn = super()._create_common(path, mode, itype)
        parent, leaf = self._resolve_parent(path)
        self._log_append(parent.ino, LOG_CREATE, itype, leaf, vn.ino, 0)
        return vn

    def unlink(self, path: str) -> None:
        parent, leaf = self._resolve_parent(path)
        super().unlink(path)
        self._log_append(parent.ino, LOG_UNLINK, 0, leaf, 0, 0)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        entry = self._fd(fd)
        old_size = entry.vnode.rec.size
        n = super().pwrite(fd, data, offset)
        if entry.vnode.rec.size != old_size:
            self._log_append(entry.vnode.ino, LOG_RESIZE, 0, b"",
                             0, entry.vnode.rec.size)
        return n


class _SocketDelegates:
    """Per-socket delegation threads performing PM copies NUMA-locally."""

    def __init__(self, device: PMDevice, sockets: int = 2, per_socket: int = 2):
        self.device = device
        self.queues = [queue.Queue() for _ in range(sockets)]
        self.threads = []
        self.delegated = 0
        self._shutdown = False
        for s in range(sockets):
            for i in range(per_socket):
                t = threading.Thread(target=self._worker, args=(s,),
                                     daemon=True, name=f"odinfs-delegate-{s}-{i}")
                t.start()
                self.threads.append(t)

    def _worker(self, socket: int) -> None:
        while True:
            item = self.queues[socket].get()
            if item is None:
                return
            addr, data, done = item
            self.device.ntstore(addr, data)
            done.set()

    def submit(self, socket: int, addr: int, data: bytes) -> threading.Event:
        done = threading.Event()
        self.queues[socket].put((addr, data, done))
        self.delegated += 1
        return done

    def stop(self) -> None:
        for q in self.queues:
            q.put(None)


class OdinFS(NovaFS):
    name = "odinfs"

    #: writes at or above this size are delegated (OdinFS's opportunism).
    DELEGATION_THRESHOLD = 4096

    def __init__(self, device: PMDevice, inode_count: int = 4096,
                 sockets: int = 2, per_socket: int = 2):
        super().__init__(device, inode_count=inode_count)
        self.pool = _SocketDelegates(device, sockets=sockets, per_socket=per_socket)
        self._socket_rr = 0

    def _data_write(self, addr: int, data: bytes) -> None:
        if len(data) >= self.DELEGATION_THRESHOLD:
            # Route to the socket owning this address range (interleaved).
            socket = (addr // (2 * 1024 * 1024)) % len(self.pool.queues)
            self.pool.submit(socket, addr, data).wait()
        else:
            super()._data_write(addr, data)
