"""The four workloads and the seeded op streams they are made of.

A stream is a list of :class:`Op` generated from ``(workload, seed,
tenant)`` alone; the program under test only ever sees the generated ops.
Every logical op belongs to one class (``read``/``write``/``meta``/``tx``),
may take several calls (``creat+close+unlink`` is one op) and leaves the
namespace as it found it, so no op in a stream can fail and any prefix of
a stream replays on a freshly built volume.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

KIB = 1024
MIB = 1024 * KIB
PAGE = 4 * KIB

CLASSES = ("read", "write", "meta", "tx")

#: Payload bytes are slices of one seeded pool, so a stream stays small in
#: memory however many 1 MiB extents it holds.
POOL_BYTES = 4 * MIB

#: Meta kinds and their weights.  Six tenths append to a directory log
#: (creat, rename, mkdir) and four tenths only look things up, which puts
#: the class median inside the rename/creat group: ``meta_p50_us`` follows
#: ``append_dentry`` and the fences, not the lookup path.
META_KINDS = (("creat_unlink", 3), ("rename_back", 2), ("mkdir_rmdir", 1),
              ("stat", 2), ("open_close", 1), ("readdir", 1))


class Op(NamedTuple):
    """One logical op.  ``ref`` is a ``(pool_offset, nbytes)`` payload
    reference; ``parts`` holds a transaction's staged writes as
    ``(file, path, offset, ref)``."""

    id: int
    cls: str
    kind: str
    file: int = -1
    path: str = ""
    path2: str = ""
    offset: int = 0
    size: int = 0
    ref: Optional[Tuple[int, int]] = None
    parts: Tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: share of each op class, in twentieths; every class gets at least
    #: one (5 %).
    mix: Dict[str, float]
    volume_bytes: int
    #: the only VolumeConfig fields a workload may set.
    inode_count: int = 2048
    crash_tracking: bool = False
    devices: int = 1
    stripe_pages: int = 1
    #: 1 = one in-process Session; 2 = a VolumeServer with one volume and
    #: one closed-loop ServerClient connection per tenant.
    tenants: int = 1
    wire: bool = False
    dirs: int = 64
    files_per_dir: int = 8
    file_bytes: int = PAGE
    #: True: read_file/write_file by path.  False: pread/pwrite on
    #: descriptors opened during set-up.
    path_io: bool = True
    #: one data op in ``big_every`` moves ``big_bytes`` (0 = none do).
    big_every: int = 0
    big_bytes: int = 0
    #: big writes also append ``grow_bytes`` and truncate back (0 = no).
    grow_bytes: int = 0
    meta_kinds: Tuple = META_KINDS
    #: ops in the timed phase per ``--seconds``, all tenants together: the
    #: op count is fixed by the arguments, never by how fast the host is
    #: (dentry logs never compact, so latency depends on the op count).
    #: About the rate of the 2-core reference host, except on the wire,
    #: where it is what gives the 5 % class 1 000 ops in a 12 s run.
    ops_per_second: int = 1000
    #: ops each ladder rung replays per ``--seconds`` in a traced run.
    trace_ops_per_second: int = 250

    def ops_for(self, seconds: float) -> int:
        return max(self.tenants, int(self.ops_per_second * seconds))

    def trace_ops_for(self, seconds: float) -> int:
        return max(1, int(self.trace_ops_per_second * seconds))

    @property
    def files(self) -> int:
        return self.dirs * self.files_per_dir


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="meta-session",
        why="FxMark-style metadata churn in one Session: hash tables, "
            "dentry appends, inode allocation and fences do the work",
        mix={"read": 0.05, "write": 0.05, "meta": 0.85, "tx": 0.05},
        volume_bytes=128 * MIB,
        ops_per_second=8000, trace_ops_per_second=200),
    Workload(
        name="data-session",
        why="4 KiB and 1 MiB reads/writes, appends and truncates on a "
            "4-device striped volume: extent I/O, routing and the allocator",
        mix={"read": 0.45, "write": 0.40, "meta": 0.10, "tx": 0.05},
        volume_bytes=256 * MIB, devices=4, stripe_pages=16,
        files_per_dir=1, file_bytes=MIB, path_io=False,
        big_every=5, big_bytes=MIB, grow_bytes=512 * KIB,
        meta_kinds=(("stat", 1),),
        ops_per_second=4000, trace_ops_per_second=160),
    Workload(
        name="crash-session",
        why="the crash tester's configuration: per-line version tracking "
            "in PMDevice does most of the work, same pm layer used "
            "differently",
        mix={"read": 0.10, "write": 0.50, "meta": 0.25, "tx": 0.15},
        volume_bytes=32 * MIB, crash_tracking=True,
        files_per_dir=2, file_bytes=64 * KIB, path_io=False,
        big_every=10, big_bytes=64 * KIB,
        ops_per_second=2400, trace_ops_per_second=120),
    Workload(
        name="wire-mixed",
        why="the tenant's view over loopback: JSON+base64 framing, the "
            "admission queue hop and per-op release/verify dominate",
        mix={"read": 0.35, "write": 0.30, "meta": 0.30, "tx": 0.05},
        volume_bytes=64 * MIB, tenants=2, wire=True,
        dirs=128, files_per_dir=4,
        ops_per_second=1700, trace_ops_per_second=200),
)}


def payload_pool(seed: int) -> bytes:
    return random.Random(f"pool/{seed}").randbytes(POOL_BYTES)


def dir_path(d: int) -> str:
    return f"/d{d:03d}"


def file_path(w: Workload, f: int) -> str:
    return f"{dir_path(f // w.files_per_dir)}/f{f % w.files_per_dir}"


class _Deck:
    """Cards dealt in seeded order and reshuffled when they run out, so
    every ``len(cards)`` draws hold exactly the deck's proportions.

    The seed then decides the order of ops, not how many of each kind a
    run gets: two seeds differ in a count metric by the odd op at the end
    of the stream, not by the sampling error of a random mix.
    """

    def __init__(self, rng: random.Random, cards):
        self.rng = rng
        self.cards = list(cards)
        self.hand: list = []

    def draw(self):
        if not self.hand:
            self.hand = self.cards[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _cards(weights: Dict[str, float], unit: float = 1) -> List[str]:
    """``round(weight / unit)`` cards per name."""
    return [name for name, weight in weights.items()
            for _ in range(round(weight / unit))]


class _Gen:
    """Generator state: the rng, the decks, and each file's current size,
    which offsets, appends and truncates depend on."""

    def __init__(self, w: Workload, rng: random.Random):
        self.w = w
        self.rng = rng
        self.sizes = [w.file_bytes] * w.files
        self.classes = _Deck(rng, _cards(w.mix, 0.05))
        self.meta_kinds = _Deck(rng, _cards(dict(w.meta_kinds)))
        big = [True] + [False] * (w.big_every - 1) if w.big_every else [False]
        self.big_reads, self.big_writes = _Deck(rng, big), _Deck(rng, big)
        self.big_kinds = _Deck(rng, ("extent", "append", "truncate")
                               if w.grow_bytes else ("extent",))

    def ref(self, n: int) -> Tuple[int, int]:
        return (self.rng.randrange(POOL_BYTES - n + 1), n)

    def page_offset(self, f: int) -> int:
        return self.rng.randrange(max(1, self.sizes[f] // PAGE)) * PAGE

    def read(self, i: int) -> Op:
        w, f = self.w, self.rng.randrange(self.w.files)
        path = file_path(w, f)
        if w.path_io:
            return Op(i, "read", "read_file", f, path, size=self.sizes[f])
        if self.big_reads.draw():
            return Op(i, "read", "pread", f, path, 0, size=w.big_bytes)
        return Op(i, "read", "pread", f, path, offset=self.page_offset(f),
                  size=PAGE)

    def write(self, i: int) -> Op:
        w, f = self.w, self.rng.randrange(self.w.files)
        if w.path_io:
            return Op(i, "write", "write_file", f, file_path(w, f),
                      ref=self.ref(PAGE))
        if not self.big_writes.draw():
            return Op(i, "write", "pwrite", f, file_path(w, f),
                      offset=self.page_offset(f), ref=self.ref(PAGE))
        kind = self.big_kinds.draw()
        # An append takes a file that can still grow and a truncate one
        # that has grown, so every seed gets the deck's share of each (the
        # one exception: a truncate dealt while no file has grown).
        grown = [g for g, size in enumerate(self.sizes) if size > w.file_bytes]
        if kind == "truncate" and grown:
            f = self.rng.choice(grown)
        elif kind != "extent":
            kind = "append"
            f = self.rng.choice([g for g, size in enumerate(self.sizes)
                                 if size < 2 * w.file_bytes])
        path = file_path(w, f)
        if kind == "extent":
            return Op(i, "write", "pwrite", f, path, offset=0,
                      ref=self.ref(w.big_bytes))
        if kind == "append":
            op = Op(i, "write", "pwrite", f, path, offset=self.sizes[f],
                    ref=self.ref(w.grow_bytes))
            self.sizes[f] += w.grow_bytes
            return op
        self.sizes[f] = w.file_bytes
        return Op(i, "write", "truncate", f, path, size=w.file_bytes)

    def meta(self, i: int) -> Op:
        w, rng = self.w, self.rng
        kind = self.meta_kinds.draw()
        d = rng.randrange(w.dirs)
        f = d * w.files_per_dir + rng.randrange(w.files_per_dir)
        if kind in ("stat", "open_close"):
            return Op(i, "meta", kind, f, file_path(w, f))
        if kind == "readdir":
            return Op(i, "meta", kind, path=dir_path(d))
        if kind == "rename_back":
            other = (d + 1 + rng.randrange(w.dirs - 1)) % w.dirs
            return Op(i, "meta", kind, f, file_path(w, f),
                      f"{dir_path(other)}/r{i}")
        stem = "t" if kind == "creat_unlink" else "m"
        return Op(i, "meta", kind, path=f"{dir_path(d)}/{stem}{i}")

    def tx(self, i: int) -> Op:
        parts = []
        for f in self.rng.sample(range(self.w.files), 3):
            parts.append((f, file_path(self.w, f), self.page_offset(f),
                          self.ref(PAGE)))
        return Op(i, "tx", "tx3", parts=tuple(parts))


def generate(w: Workload, seed: int, tenant: int, count: int) -> List[Op]:
    """The first ``count`` ops of tenant ``tenant``'s stream."""
    gen = _Gen(w, random.Random(f"{w.name}/{seed}/{tenant}"))
    makers = {"read": gen.read, "write": gen.write, "meta": gen.meta,
              "tx": gen.tx}
    # Every draw is made in stream order, so a shorter stream is a prefix
    # of a longer one.
    return [makers[gen.classes.draw()](i) for i in range(count)]


def digest(streams: List[List[Op]], pool: bytes) -> str:
    """Identity of a run's inputs: every op of every tenant, and the pool."""
    h = hashlib.sha256(hashlib.sha256(pool).digest())
    for ops in streams:
        for op in ops:
            h.update(repr(tuple(op)).encode())
    return h.hexdigest()
