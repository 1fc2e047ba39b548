"""Per-(file system, operation) phase recipes for the DES.

``phases(fs, ctx, cost, nthreads, tid)`` returns a list of symbolic phases:

* ``("cpu", ns)`` — CPU time;
* ``("fence",)`` — one persistence fence;
* ``("syscall",)`` — kernel entry/exit (kernel FSes only);
* ``("pm_w", nbytes)`` / ``("pm_r", nbytes)`` — PM access: latency (NUMA-
  dependent) plus shared-bandwidth occupancy;
* ``("lock", name)`` / ``("unlock", name)`` — a named FIFO lock;
* ``("use", name, ns, capacity)`` — a finite-capacity server.

The structure mirrors the functional implementations: which lock an
operation holds and across what work, how many fences it issues, which
bytes it moves.  The contention behaviour of Figure 4 then *emerges*: the
ext4 journal lock serializes creates, shared-directory FxMark workloads
contend on bucket/tail locks, Strata's trusted digestion bottlenecks, the
ArckFS family pays none of the syscalls.

Operation context (``ctx``) keys:
``op`` (create/unlink/open/stat/readdir/rename/read/write/truncate),
``dir`` (directory identity), ``bucket``, ``tail``, ``depth``,
``entries`` (readdir), ``size`` (data ops), ``hot`` (MRPH same-file id),
``cross`` (cross-directory rename), ``is_dir`` (rename of a directory).
"""

from __future__ import annotations

from typing import Dict, List

from repro.perf.costmodel import CostModel

Sym = tuple
ARCKFS_FAMILY = ("arckfs", "arckfs+")
KERNEL_FAMILY = ("ext4", "pmfs", "nova", "winefs", "odinfs")


def phases(fs: str, ctx: Dict, cost: CostModel, nthreads: int, tid: int) -> List[Sym]:
    op = ctx["op"]
    if op == "nop":
        # fsync/close on the ArckFS family return immediately (§2.2);
        # kernel-mediated systems still pay the syscall.
        if fs in KERNEL_FAMILY or fs == "strata":
            return [("syscall",)]
        return [("cpu", 50.0)]
    if fs in ARCKFS_FAMILY:
        out = _arckfs(fs == "arckfs+", op, ctx, cost, nthreads, tid)
    elif fs in KERNEL_FAMILY:
        out = _kernel(fs, op, ctx, cost, nthreads, tid)
    elif fs == "splitfs":
        out = _splitfs(op, ctx, cost, nthreads, tid)
    elif fs == "strata":
        out = _strata(op, ctx, cost, nthreads, tid)
    else:
        raise ValueError(f"unknown fs {fs!r}")
    if op in ("open", "stat"):
        # System-independent sharing penalties: opening the one hot file
        # bounces its inode cache line (MRPH); opening *random* shared
        # files misses every private cache and fetches cold metadata from
        # (half-remote) PM (MRPM).  Both variants — and every baseline —
        # pay these equally.
        if ctx.get("hot") is not None:
            out = out + [("cpu", cost.mrph_hot_extra)]
        elif ctx.get("dir") == "shared":
            out = out + [("cpu", cost.mrpm_shared_extra)]
    flock = ctx.get("flock")
    if flock is not None and op in ("create", "unlink", "open", "rename"):
        # The shared-directory Filebench framework's per-filename lock
        # (engine-level: identical for every file system under test).
        out = [("lock", f"flb.{flock}")] + out + [("unlock", f"flb.{flock}")]
    return out


# --------------------------------------------------------------------------- #
# ArckFS / ArckFS+
# --------------------------------------------------------------------------- #


def _resolve(plus: bool, depth: int, cost: CostModel) -> List[Sym]:
    """Path resolution: one aux-hash lookup per component; the §4.5 patch
    adds an RCU read-side critical section to each."""
    per = cost.lookup_cpu + (cost.rcu_read if plus else 0.0)
    return [("cpu", per * depth)] if depth else []


def _arckfs(plus: bool, op: str, ctx: Dict, cost: CostModel,
            nthreads: int, tid: int) -> List[Sym]:
    dirid = ctx.get("dir", "d0")
    bucket = ctx.get("bucket", 0) % cost.hash_buckets
    tail = ctx.get("tail", tid) % cost.log_tails
    depth = ctx.get("depth", 1)
    blk = f"{dirid}.b{bucket}"
    tlk = f"{dirid}.t{tail}"

    if op in ("open", "stat"):
        # Calibrated: 1000 ns at depth 5 for ArckFS (Fig. 3); the RCU
        # read-side sections make ArckFS+ 83.3 % of that.
        scale = 0.8 if op == "stat" else 1.0
        base = cost.arckfs_open_base * (depth / cost.path_depth) * scale
        extra = cost.rcu_read * depth if plus else 0.0
        return [("cpu", base + extra)]

    if op == "readdir":
        entries = ctx.get("entries", 16)
        base = 400.0 + 25.0 * entries
        # Calibrated: RCU read-side cost per traversed bucket chain (the
        # paper's largest drop, MRDL 75.45 %); bounded by the bucket count,
        # which is why the big shared directory of MRDM dilutes it (95.94 %).
        extra = cost.rcu_read * 0.4 * min(entries, 64) if plus else 0.0
        return _resolve(plus, depth - 1, cost) + [("cpu", base + extra)]

    if op == "create":
        # Decomposition of the calibrated 1290 ns ArckFS create:
        # 400 resolve+alloc, 150 aux insert (bucket CS), append work
        # (tail CS): 3 line writes + final fence, 270 bookkeeping.
        out = _resolve(plus, depth - 1, cost)
        out += [("cpu", 330.0), ("use", "fs.alloc", cost.alloc_service, 1)]
        out += [("lock", blk), ("cpu", 150.0)]
        append = [
            ("lock", tlk),
            ("pm_w", 192),
            *( [("fence",)] if plus else [] ),  # the §4.2 patch
            ("pm_w", 8),
            ("fence",),
            ("unlock", tlk),
        ]
        if plus:
            # §4.4 patch: the append happens inside the bucket CS.
            out += append + [("unlock", blk)]
        else:
            out += [("unlock", blk)] + append
        # Every create touches the directory's index-tail / metadata line
        # (entry count, resize state).  Under the §4.4 patch that touch sits
        # inside the extended critical section, so it is held a bit longer —
        # "increases contention ... for the same bucket during insertion or
        # resizing" (Table 2: MWCM 91.6 %).  Private directories (MWCL) make
        # this a per-thread resource, hence no effect there.
        out += [("use", f"{dirid}.idx", 110.0 + (10.0 if plus else 0.0), 1)]
        out += [("cpu", 385.0)]
        return out

    if op == "unlink":
        out = _resolve(plus, depth - 1, cost)
        lookup = cost.lookup_cpu + (cost.rcu_read if plus else 0.0)
        out += [("cpu", 200.0 + lookup)]
        out += [
            ("lock", blk),
            ("cpu", 80.0),
            ("pm_w", 8),
            ("fence",),
            ("unlock", blk),
        ]
        # Free the inode record (tombstone already fenced).
        out += [("pm_w", 128), ("fence",), ("cpu", 260.0)]
        if plus:
            out += [("cpu", 15.0)]
        else:
            # Calibrated §4.3-side-effect: ArckFS's in-memory inode layout
            # false-shares cache lines across threads; the penalty grows
            # with thread count (Table 2: MWUL 118.8 %, MWUM 154.7 %).
            slope = (
                cost.false_sharing_slope_shared
                if ctx.get("shared")
                else cost.false_sharing_slope_private
            )
            out += [("cpu", slope * nthreads)]
        return out

    if op == "rename":
        # Append into the new parent + tombstone in the old one.
        ndir = ctx.get("dir2", dirid)
        nbucket = ctx.get("bucket2", bucket) % cost.hash_buckets
        out = _resolve(plus, depth, cost)
        out += [("cpu", 400.0)]
        out += [
            ("lock", f"{ndir}.b{nbucket}"),
            ("pm_w", 192),
            *( [("fence",)] if plus else [] ),
            ("pm_w", 8),
            ("fence",),
            ("unlock", f"{ndir}.b{nbucket}"),
            ("lock", blk),
            ("pm_w", 8),
            ("fence",),
            ("unlock", blk),
            ("cpu", 300.0),
        ]
        if plus and ctx.get("is_dir") and ctx.get("cross"):
            # Global rename lease + per-operation commit (§4.1/§4.6).
            out = [("lock", "kernel.rename_lease")] + out + [
                ("cpu", cost.verify_time(4096)),
                ("unlock", "kernel.rename_lease"),
            ]
        return out

    if op == "truncate":
        out = _resolve(plus, depth - 1, cost) + [
            ("cpu", 350.0),
            ("pm_w", 16),
            ("fence",),
            ("pm_w", 8),
            ("fence",),
        ]
        if not plus:
            # The same in-memory-inode alignment effect as unlink, in
            # homeopathic dose (Table 2: DWTL 101.25 %).
            out += [("cpu", 0.3 * nthreads)]
        return out

    if op in ("read", "write"):
        size = ctx.get("size", 4096)
        out: List[Sym] = [("cpu", 300.0)]
        # Both ArckFS variants delegate sizeable accesses to per-socket
        # I/O threads (the Trio paper's delegation optimisation), so the
        # access itself is NUMA-local.
        if op == "write":
            out += [("use", f"pm.delegate.s{tid % 2}", cost.pm_write_lat
                     + cost.pm_bw_time(size, read=False), 4)]
            out += [("fence",)]
            if ctx.get("extend"):
                out += [("pm_w", 8), ("fence",)]
        else:
            out += [("use", f"pm.delegate.s{tid % 2}", cost.pm_read_lat
                     + cost.pm_bw_time(size, read=True), 4)]
        return out

    raise ValueError(f"no ArckFS recipe for {op!r}")


# --------------------------------------------------------------------------- #
# Kernel file systems
# --------------------------------------------------------------------------- #


def _kfs_meta_extra(fs: str, cost: CostModel) -> List[Sym]:
    """Per-FS persistence machinery inside a namespace operation."""
    if fs == "ext4":
        return [
            ("lock", "ext4.jbd2"),
            ("cpu", cost.ext4_journal_cpu),
            ("pm_w", cost.ext4_journal_bytes),
            ("fence",),
            ("pm_w", 192),
            ("fence",),
            ("unlock", "ext4.jbd2"),
        ]
    if fs in ("pmfs", "winefs"):
        extra: List[Sym] = [("cpu", cost.pmfs_undo_cost), ("pm_w", 256), ("fence",),
                            ("pm_w", 192), ("fence",)]
        if fs == "winefs":
            extra.append(("cpu", cost.winefs_alloc_cpu))
        return extra
    # nova / odinfs: per-inode log append.
    return [("cpu", cost.nova_log_append), ("pm_w", 128), ("fence",)]


def _kernel(fs: str, op: str, ctx: Dict, cost: CostModel,
            nthreads: int, tid: int) -> List[Sym]:
    dirid = ctx.get("dir", "d0")
    depth = ctx.get("depth", 1)
    walk: List[Sym] = [("syscall",), ("cpu", 200.0 * depth)]

    if op in ("open", "stat"):
        out = walk + [("cpu", 300.0)]
        if ctx.get("hot") is not None:
            # MRPH: refcount bouncing on the one hot dentry.
            out += [("use", f"{fs}.dentry.{ctx['hot']}", 60.0, 1)]
        return out

    if op == "readdir":
        entries = ctx.get("entries", 16)
        return walk + [("cpu", 200.0 + 35.0 * entries), ("pm_r", 64 * entries)]

    if op in ("create", "unlink"):
        return walk + [
            ("lock", f"{fs}.dir.{dirid}"),  # the VFS per-directory mutex
            ("cpu", 300.0),
            ("pm_w", 192),
            ("fence",),
            *_kfs_meta_extra(fs, cost),
            ("unlock", f"{fs}.dir.{dirid}"),
            ("cpu", 150.0),
        ]

    if op == "rename":
        ndir = ctx.get("dir2", dirid)
        out = walk + [("cpu", 200.0)]
        locks = sorted({f"{fs}.dir.{dirid}", f"{fs}.dir.{ndir}"})
        if ctx.get("is_dir") and ctx.get("cross"):
            locks = ["kernel.s_vfs_rename_mutex"] + locks
        for name in locks:
            out.append(("lock", name))
        out += [("pm_w", 200), ("fence",), *_kfs_meta_extra(fs, cost)]
        for name in reversed(locks):
            out.append(("unlock", name))
        return out

    if op == "truncate":
        return walk + [
            ("lock", f"{fs}.ino.{ctx.get('file', tid)}"),
            ("cpu", 250.0),
            ("pm_w", 144),
            ("fence",),
            *_kfs_meta_extra(fs, cost),
            ("unlock", f"{fs}.ino.{ctx.get('file', tid)}"),
        ]

    if op in ("read", "write"):
        size = ctx.get("size", 4096)
        out = [("syscall",), ("cpu", 200.0)]
        if fs == "odinfs" and size >= 4096:
            # Delegation over a page-striped volume (a PMDevice with one
            # member per NUMA-local PM device): the extent is enqueued and
            # every member it touches serves its share on its own
            # delegation queue, each with a bounded worker pool.  A 4 KiB
            # page lives on one member, so it occupies that member for all
            # 4 KiB.  The service time is the share at one stream's
            # bandwidth (costmodel.delegate_service_time); queueing behind a
            # saturated member is emergent from the DES `use` resource.  The
            # DES has no fork, so a multi-member extent visits its queues in
            # turn: its latency is overstated, its media time is not.
            ndev = cost.sockets
            members = min(ndev, -(-size // 4096))
            service = cost.delegate_service_time(size, devices=members,
                                                 read=(op == "read"))
            out.append(("cpu", cost.delegate_enqueue))
            out += [("use", f"pm.dev{(tid + k) % ndev}.delegate", service,
                     cost.odinfs_delegates_per_socket)
                    for k in range(members)]
        else:
            out += [(("pm_w" if op == "write" else "pm_r"), size)]
        if op == "write":
            out += [("fence",)]
            if fs in ("nova", "odinfs"):
                out += [("cpu", cost.nova_log_append), ("pm_w", 64), ("fence",)]
        return out

    raise ValueError(f"no kernel recipe for {op!r}")


# --------------------------------------------------------------------------- #
# SplitFS / Strata
# --------------------------------------------------------------------------- #


def _splitfs(op: str, ctx: Dict, cost: CostModel, nthreads: int, tid: int) -> List[Sym]:
    if op in ("read", "write"):
        size = ctx.get("size", 4096)
        out: List[Sym] = [("cpu", cost.splitfs_user_cpu)]
        out += [(("pm_w" if op == "write" else "pm_r"), size)]
        if op == "write":
            out += [("fence",)]
        return out
    # Every metadata operation falls through to the ext4 kernel path, plus
    # user-library bookkeeping.
    return [("cpu", cost.splitfs_user_cpu)] + _kernel("ext4", op, ctx, cost,
                                                      nthreads, tid)


def _strata(op: str, ctx: Dict, cost: CostModel, nthreads: int, tid: int) -> List[Sym]:
    if op in ("read", "write"):
        size = ctx.get("size", 4096)
        out: List[Sym] = [("cpu", 250.0), (("pm_w" if op == "write" else "pm_r"), size)]
        if op == "write":
            out += [("fence",)]
        return out
    if op == "readdir":
        entries = ctx.get("entries", 16)
        return [("syscall",), ("cpu", 1200.0 + 35.0 * entries)]
    if op in ("open", "stat"):
        # Reads check the private log, then the kernel-shared area.
        return [("syscall",), ("cpu", 1400.0), ("pm_r", 256)]
    # Metadata: append to the private log, then pay the trusted digestion —
    # partially serialized on the shared digest queue.
    return [
        ("cpu", 300.0),
        ("pm_w", 160),
        ("fence",),
        ("use", "strata.digest", 900.0, 2),
        ("cpu", cost.strata_digest_cpu - 900.0),
    ]
