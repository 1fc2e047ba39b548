"""A generic kernel PM file system behind a VFS layer.

This is the functional substrate for the kernel-FS baselines (ext4, PMFS,
WineFS, NOVA, OdinFS).  It reuses the on-PM record formats from
``repro.pm.layout`` (inode records, dentry records, page-index pages) but
with the *kernel* structure the paper's comparison hinges on:

* every API call is a **system call** (counted — the cost model charges it);
* path resolution goes through a dcache and each directory-mutating
  operation holds the parent's **inode mutex** (one lock per directory —
  the scalability wall the paper's Figure 4 shows for kernel FSes);
* cross-directory renames of directories serialize on
  ``s_vfs_rename_mutex`` (which is why kernel FSes never exhibit the §4.6
  cycle bug);
* metadata writes funnel through ``_meta_write`` so subclasses can
  interpose a journal (ext4) or different persistence modes.

Directories are a single page chain of dentry records (no multi-tailed
log — kernel FSes serialize directory updates anyway), always persisted
with correct flush+fence ordering.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.basefs.base import FileSystem
from repro.errors import (
    BadFileDescriptor,
    Exists,
    InvalidArgument,
    IsADir,
    NoEntry,
    NotADir,
    NotEmpty,
    WouldLoop,
)
from repro.libfs import paths
from repro.libfs.libfs import StatResult
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice
from repro.pm.layout import (
    DENTRY_DELETED_OFF,
    INODE_MAGIC,
    ITYPE_DIR,
    ITYPE_FILE,
    PAGE_KIND_DIRLOG,
    PAGE_SIZE,
    PAGEHDR_SIZE,
    Dentry,
    Geometry,
    InodeRecord,
    PageHeader,
)

ROOT_INO = 0


@dataclass
class VFSStats:
    syscalls: int = 0
    dcache_hits: int = 0
    dcache_misses: int = 0
    journal_commits: int = 0
    journal_bytes: int = 0
    log_appends: int = 0
    digests: int = 0


@dataclass
class _VNode:
    """DRAM inode object (the kernel's icache entry)."""

    ino: int
    rec: InodeRecord
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: dirs: name -> (ino, dentry page, offset); files: data page list.
    entries: Dict[bytes, Tuple[int, int, int]] = field(default_factory=dict)
    pages: List[int] = field(default_factory=list)
    dir_tail: Tuple[int, int] = (0, 0)  # (last page, used bytes)


class _FD:
    __slots__ = ("fd", "vnode", "path", "offset", "closed")

    def __init__(self, fd: int, vnode: _VNode, path: str):
        self.fd = fd
        self.vnode = vnode
        self.path = path
        self.offset = 0
        self.closed = False


class VFSKernelFS(FileSystem):
    """Functional kernel-FS model (PM-native, in-place, fenced writes)."""

    name = "vfs"

    def __init__(self, device: PMDevice, inode_count: int = 4096):
        self.device = device
        self.geom = Geometry.compute(device.size, inode_count)
        self.alloc = PageAllocator(device, self.geom)
        self.stats = VFSStats()
        self._icache: Dict[int, _VNode] = {}
        self._dcache: Dict[str, int] = {"/": ROOT_INO}
        self._dcache_lock = threading.Lock()
        self._icache_lock = threading.Lock()
        self._fd_lock = threading.Lock()
        self._fds: Dict[int, _FD] = {}
        self._next_fd = 3
        self._next_ino = 1
        self._ino_lock = threading.Lock()
        self.rename_mutex = threading.Lock()  # s_vfs_rename_mutex
        self._format()

    # ------------------------------------------------------------------ #
    # Mkfs / persistence hooks
    # ------------------------------------------------------------------ #

    def _format(self) -> None:
        root = InodeRecord(INODE_MAGIC, ITYPE_DIR, 0o777, 0, 1, 0, 2, 0, 0, [0, 0, 0, 0])
        self._meta_write(self.geom.inode_off(ROOT_INO), root.pack())
        self._txn_commit()
        self._icache[ROOT_INO] = _VNode(ROOT_INO, root)

    def _meta_write(self, addr: int, data: bytes) -> None:
        """Persist a metadata write.  Subclasses may journal instead."""
        self.device.store(addr, data)
        self.device.clwb(addr, len(data))

    def _txn_commit(self) -> None:
        """End of a metadata operation: make its writes durable."""
        self.device.sfence()

    def _data_write(self, addr: int, data: bytes) -> None:
        self.device.ntstore(addr, data)

    # ------------------------------------------------------------------ #
    # Internal FS machinery
    # ------------------------------------------------------------------ #

    def _syscall(self) -> None:
        self.stats.syscalls += 1

    def _alloc_ino(self) -> int:
        with self._ino_lock:
            ino = self._next_ino
            self._next_ino += 1
            if ino >= self.geom.inode_count:
                raise InvalidArgument("out of inode slots")
            return ino

    def _vnode(self, ino: int) -> _VNode:
        with self._icache_lock:
            vn = self._icache.get(ino)
            if vn is None:
                raise NoEntry(f"inode {ino}")
            return vn

    def _resolve(self, path: str) -> _VNode:
        comps = paths.parse(path)
        path = paths.join(comps)
        with self._dcache_lock:
            ino = self._dcache.get(path)
        if ino is not None:
            self.stats.dcache_hits += 1
            return self._vnode(ino)
        self.stats.dcache_misses += 1
        cur = self._vnode(ROOT_INO)
        walked = ""
        for comp in comps:
            if cur.rec.itype != ITYPE_DIR:
                raise NotADir(path)
            hit = cur.entries.get(comp.encode())
            if hit is None:
                raise NoEntry(path)
            walked += "/" + comp
            cur = self._vnode(hit[0])
            with self._dcache_lock:
                self._dcache[walked] = cur.ino
        return cur

    def _resolve_parent(self, path: str) -> Tuple[_VNode, bytes]:
        comps = paths.parse(path)
        if not comps:
            raise InvalidArgument("the root directory has no name")
        parent = self._resolve(paths.join(comps[:-1]))
        if parent.rec.itype != ITYPE_DIR:
            raise NotADir(path)
        return parent, comps[-1].encode()

    # -- directory storage ------------------------------------------------ #

    def _append_dentry(self, parent: _VNode, name: bytes, ino: int, itype: int) -> None:
        """Append one dentry record to the parent's page chain, journaled/
        fenced per the subclass's persistence mode."""
        rec_len = Dentry.record_len(name)
        last, used = parent.dir_tail
        if last == 0 or used + rec_len > PAGE_SIZE - PAGEHDR_SIZE:
            new_page = self.alloc.alloc()
            hdr = PageHeader(0, 0, PAGE_KIND_DIRLOG)
            self._meta_write(self.geom.page_off(new_page), hdr.pack())
            if last == 0:
                parent.rec.index_root = new_page
                self._meta_write(self.geom.inode_off(parent.ino), parent.rec.pack())
            else:
                self._meta_write(self.geom.page_off(last), struct.pack("<Q", new_page))
            last, used = new_page, 0
        offset = PAGEHDR_SIZE + used
        d = Dentry(ino=ino, gen=1, seq=1, rec_len=rec_len, name_len=len(name),
                   itype=itype, deleted=0, name=name)
        self._meta_write(self.geom.page_off(last) + offset, d.pack())
        parent.dir_tail = (last, used + rec_len)
        parent.entries[name] = (ino, last, offset)

    def _tombstone_dentry(self, parent: _VNode, name: bytes) -> None:
        _ino, page, offset = parent.entries.pop(name)
        addr = self.geom.page_off(page) + offset + DENTRY_DELETED_OFF
        self._meta_write(addr, b"\x01")

    # -- file storage ------------------------------------------------------ #

    def _grow_file(self, vn: _VNode, needed_pages: int) -> None:
        while len(vn.pages) < needed_pages:
            vn.pages.append(self.alloc.alloc(zero=True))

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def _create_common(self, path: str, mode: int, itype: int) -> _VNode:
        path = paths.normalize(path)
        parent, name = self._resolve_parent(path)
        with parent.lock:  # the VFS per-directory inode mutex
            if name in parent.entries:
                raise Exists(path)
            ino = self._alloc_ino()
            rec = InodeRecord(INODE_MAGIC, itype, mode, 0, 1, 0,
                              2 if itype == ITYPE_DIR else 1, 0, 0, [0, 0, 0, 0])
            self._meta_write(self.geom.inode_off(ino), rec.pack())
            self._append_dentry(parent, name, ino, itype)
            self._txn_commit()
            vn = _VNode(ino, rec)
            with self._icache_lock:
                self._icache[ino] = vn
            return vn

    def creat(self, path: str, mode: int = 0o664) -> int:
        self._syscall()
        vn = self._create_common(path, mode, ITYPE_FILE)
        return self._install_fd(vn, path)

    def open(self, path: str, create: bool = False, mode: int = 0o664) -> int:
        self._syscall()
        try:
            vn = self._resolve(path)
        except NoEntry:
            if not create:
                raise
            vn = self._create_common(path, mode, ITYPE_FILE)
            return self._install_fd(vn, path)
        if vn.rec.itype == ITYPE_DIR:
            raise IsADir(path)
        return self._install_fd(vn, path)

    def _install_fd(self, vn: _VNode, path: str) -> int:
        with self._fd_lock:
            fd = self._next_fd
            self._next_fd += 1
            self._fds[fd] = _FD(fd, vn, path)
            return fd

    def _fd(self, fd: int) -> _FD:
        with self._fd_lock:
            entry = self._fds.get(fd)
        if entry is None or entry.closed:
            raise BadFileDescriptor(str(fd))
        return entry

    def close(self, fd: int) -> None:
        self._syscall()
        with self._fd_lock:
            entry = self._fds.pop(fd, None)
        if entry is None:
            raise BadFileDescriptor(str(fd))
        entry.closed = True

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        self._syscall()
        entry = self._fd(fd)
        vn = entry.vnode
        data = bytes(data)
        with vn.lock:
            end = offset + len(data)
            self._grow_file(vn, (end + PAGE_SIZE - 1) // PAGE_SIZE)
            pos, di = offset, 0
            while di < len(data):
                page = vn.pages[pos // PAGE_SIZE]
                in_page = pos % PAGE_SIZE
                chunk = min(len(data) - di, PAGE_SIZE - in_page)
                self._data_write(self.geom.page_off(page) + in_page,
                                 data[di : di + chunk])
                pos += chunk
                di += chunk
            if end > vn.rec.size:
                vn.rec.size = end
                self._meta_write(self.geom.inode_off(vn.ino), vn.rec.pack())
            self._txn_commit()
        return len(data)

    def pread(self, fd: int, n: int, offset: int) -> bytes:
        self._syscall()
        entry = self._fd(fd)
        vn = entry.vnode
        with vn.lock:
            if offset >= vn.rec.size:
                return b""
            n = min(n, vn.rec.size - offset)
            out = bytearray()
            while n > 0:
                idx = offset // PAGE_SIZE
                in_page = offset % PAGE_SIZE
                chunk = min(n, PAGE_SIZE - in_page)
                if idx < len(vn.pages):
                    out += self.device.load(
                        self.geom.page_off(vn.pages[idx]) + in_page, chunk
                    )
                else:
                    out += b"\0" * chunk
                offset += chunk
                n -= chunk
            return bytes(out)

    def fsync(self, fd: int) -> None:
        self._syscall()
        self._fd(fd)
        self.device.sfence()

    def unlink(self, path: str) -> None:
        self._syscall()
        path = paths.normalize(path)
        parent, name = self._resolve_parent(path)
        with parent.lock:
            hit = parent.entries.get(name)
            if hit is None:
                raise NoEntry(path)
            child = self._vnode(hit[0])
            if child.rec.itype == ITYPE_DIR:
                raise IsADir(path)
            self._tombstone_dentry(parent, name)
            child.rec.magic = 0
            self._meta_write(self.geom.inode_off(child.ino), child.rec.pack())
            self._txn_commit()
            for page in child.pages:
                self.alloc.free(page)
            with self._icache_lock:
                self._icache.pop(child.ino, None)
            with self._dcache_lock:
                self._dcache.pop(path, None)

    def truncate(self, path: str, size: int) -> None:
        self._syscall()
        vn = self._resolve(path)
        if vn.rec.itype == ITYPE_DIR:
            raise IsADir(path)
        with vn.lock:
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            if size < vn.rec.size:
                for page in vn.pages[keep:]:
                    self.alloc.free(page)
                vn.pages = vn.pages[:keep]
            vn.rec.size = size
            self._meta_write(self.geom.inode_off(vn.ino), vn.rec.pack())
            self._txn_commit()

    def mkdir(self, path: str, mode: int = 0o775) -> None:
        self._syscall()
        self._create_common(path, mode, ITYPE_DIR)

    def rmdir(self, path: str) -> None:
        self._syscall()
        path = paths.normalize(path)
        if path == "/":
            raise InvalidArgument("cannot remove the root")
        parent, name = self._resolve_parent(path)
        with parent.lock:
            hit = parent.entries.get(name)
            if hit is None:
                raise NoEntry(path)
            child = self._vnode(hit[0])
            if child.rec.itype != ITYPE_DIR:
                raise NotADir(path)
            with child.lock:
                if child.entries:
                    raise NotEmpty(path)
                self._tombstone_dentry(parent, name)
                child.rec.magic = 0
                self._meta_write(self.geom.inode_off(child.ino), child.rec.pack())
                self._txn_commit()
            with self._icache_lock:
                self._icache.pop(child.ino, None)
            with self._dcache_lock:
                self._dcache.pop(path, None)

    def readdir(self, path: str) -> List[str]:
        self._syscall()
        vn = self._resolve(path)
        if vn.rec.itype != ITYPE_DIR:
            raise NotADir(path)
        with vn.lock:
            return sorted(n.decode() for n in vn.entries)

    def rename(self, oldpath: str, newpath: str) -> None:
        self._syscall()
        oldc, newc = paths.parse(oldpath), paths.parse(newpath)
        oldpath, newpath = paths.join(oldc), paths.join(newc)
        if oldc == newc:
            return
        if newc[:len(oldc)] == oldc:
            raise WouldLoop(f"{newpath} inside {oldpath}")
        old_parent, oldname = self._resolve_parent(oldpath)
        new_parent, newname = self._resolve_parent(newpath)
        src = old_parent.entries.get(oldname)
        if src is None:
            raise NoEntry(oldpath)
        src_vn = self._vnode(src[0])
        is_dir = src_vn.rec.itype == ITYPE_DIR
        cross = old_parent.ino != new_parent.ino

        # Kernel FSes serialize cross-directory renames of directories.
        if is_dir and cross:
            self.rename_mutex.acquire()
        locks = sorted({id(old_parent.lock): old_parent.lock,
                        id(new_parent.lock): new_parent.lock}.items())
        for _key, lock in locks:
            lock.acquire()
        try:
            if oldname not in old_parent.entries:
                raise NoEntry(oldpath)
            if newname in new_parent.entries:
                raise Exists(newpath)
            self._append_dentry(new_parent, newname, src_vn.ino, src_vn.rec.itype)
            self._tombstone_dentry(old_parent, oldname)
            self._txn_commit()
        finally:
            for _key, lock in reversed(locks):
                lock.release()
            if is_dir and cross:
                self.rename_mutex.release()
        with self._dcache_lock:
            stale = [p for p in self._dcache if p == oldpath or p.startswith(oldpath + "/")]
            for p in stale:
                del self._dcache[p]

    def stat(self, path: str) -> StatResult:
        self._syscall()
        vn = self._resolve(path)
        return StatResult(ino=vn.ino, itype=vn.rec.itype, size=vn.rec.size,
                          mode=vn.rec.mode, uid=vn.rec.uid, gen=vn.rec.gen)
