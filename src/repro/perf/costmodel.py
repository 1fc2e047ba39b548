"""Calibrated cost constants (nanoseconds) for the performance model.

Three provenance classes, annotated per constant:

* **[hw]** — published Optane-PM / Cascade Lake characteristics (orders of
  magnitude; exact values do not change any conclusion);
* **[struct]** — structural counts taken from the functional code in this
  repository (how many fences a create issues, how many lookups an open
  performs, ...);
* **[calib]** — magnitudes calibrated so that the *single-thread ratios the
  paper reports* come out (Fig. 3: ArckFS+/ArckFS = 83.3 % open / 92.8 %
  create / 92.2 % delete; Table 2 footnotes); the multi-thread behaviour is
  then emergent from DES contention, not calibrated point-by-point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.pm.layout import PAGE_SIZE, InodeRecord


@dataclass(frozen=True)
class CostModel:
    # ------------------------------------------------------------------ #
    # Hardware
    # ------------------------------------------------------------------ #
    #: [hw] local PM read latency (ns) for a cache line.
    pm_read_lat: float = 170.0
    #: [hw] PM write into the WPQ (store + clwb visible cost).
    pm_write_lat: float = 90.0
    #: [hw] sfence draining the write-pending queue.
    fence: float = 100.0
    #: [hw] remote-socket multiplier for PM access (dual-NUMA machine).
    numa_remote_factor: float = 2.2
    #: [hw] per-DIMM write bandwidth (bytes/ns); 6 DIMMs on the machine.
    pm_write_bw_per_dimm: float = 2.0
    pm_read_bw_per_dimm: float = 2.5
    pm_dimms: int = 6
    #: [hw] syscall + VFS entry/exit overhead.
    syscall: float = 620.0
    #: [hw] DRAM hash lookup / dcache hit.
    lookup_cpu: float = 60.0
    #: [hw] plain CPU work per op (allocation, packing, fd table).
    op_cpu: float = 250.0

    # ------------------------------------------------------------------ #
    # ArckFS family — [struct] counts, [calib] magnitudes
    # ------------------------------------------------------------------ #
    #: [calib] ArckFS single-thread create cost without the §4.2 fence;
    #: chosen with `fence` so create ratio = 1290/(1290+100) = 92.8 %.
    arckfs_create_base: float = 1290.0
    #: [calib] ArckFS open with 5-depth resolution = 1000 ns; the §4.5 RCU
    #: read-side cost per lookup is 40 ns, so open ratio = 1000/1200 = 83.3 %.
    rcu_read: float = 40.0
    arckfs_open_base: float = 1000.0
    #: [calib] ArckFS unlink base; +2 RCU sections + ~15 ns bookkeeping
    #: keeps the delete ratio near 92.2 %.
    arckfs_unlink_base: float = 1110.0
    #: [struct] path depth of the Fig. 3 / MRP* workloads.
    path_depth: int = 5
    #: [calib] §4.3 patch side effect: the shadow-inode field added to the
    #: in-memory inode changed cache-line alignment, *removing* a false-
    #: sharing penalty ArckFS pays on unlink.  Penalty grows with threads;
    #: per-thread slopes calibrated to Table 2 (MWUL 118.8 %, MWUM 154.7 %).
    false_sharing_slope_private: float = 6.3
    false_sharing_slope_shared: float = 15.5
    #: [calib] §4.4 patch: extra time inside the bucket-lock critical
    #: section (the PM append moved inside), visible only under contention.
    bucket_cs_extra: float = 180.0
    #: [struct] ArckFS tails per directory (parallel log appends); the
    #: artifact sizes the multi-tailed log generously for 48 cores.
    log_tails: int = 32
    hash_buckets: int = 256  # the aux hash resizes with directory size
    #: [calib] per-release cost of taking every bucket lock (§4.3 patch).
    release_lock_all: float = 900.0
    #: [calib] shared page/inode allocator critical section (one per create;
    #: caps private-create scalability identically for both variants, which
    #: is why Table 2's MWCL sits near 100 %).
    alloc_service: float = 45.0
    #: [struct] per-alloc cost on a pool hit: one uncontended pool lock +
    #: a list pop, no shared state touched.
    alloc_pool_hit: float = 18.0
    #: [struct] fixed cost of one pool refill: the shared-lock handoff, the
    #: batched bitmap write-back and the single fence.
    alloc_refill_base: float = 260.0
    #: [struct] per-page increment of a refill: the byte-scan step plus the
    #: reservation-tag store/clwb.
    alloc_refill_per_page: float = 6.0
    #: [struct] pages reserved per refill (the allocator's default batch).
    alloc_pool_batch: int = 64
    #: [calib] legacy global-lock alloc critical section: probe-and-set
    #: under the shared lock plus the per-page bit persist (fence included).
    alloc_global_cs: float = 420.0
    #: [calib] extra per-open cost of a *random shared* file (MRPM): the
    #: aux index misses and the dentry/inode are fetched from (half-remote)
    #: PM.  Identical for both variants.
    mrpm_shared_extra: float = 1330.0
    #: [calib] extra per-open cost of the one *hot* shared file (MRPH):
    #: cache-line bouncing on its in-memory inode.  Identical for both.
    mrph_hot_extra: float = 900.0

    # -- lock-free read path (the ``reads`` experiment's DES sweep) ------ #
    #: [hw] one atomic RMW on a shared cacheline (lock-prefixed op with the
    #: line bouncing between cores) — the unit cost of an rwlock read
    #: acquire/release and of a shared-counter increment.
    cacheline_rmw: float = 90.0
    #: [struct] seqcount validation: two sequence loads + compare around
    #: the read-side critical section (thread-private, no RMW).
    seq_read_check: float = 8.0
    #: [struct] sharded-counter add: one thread-private increment.
    sharded_counter_add: float = 5.0
    #: [struct] folding one shard on a counter read (cold path).
    counter_fold_per_shard: float = 12.0
    #: [struct] probing the published-version table on a cache attach or
    #: revalidation: one shared read-mostly load, no kernel crossing.
    readcache_probe: float = 40.0

    # ------------------------------------------------------------------ #
    # Kernel FS family
    # ------------------------------------------------------------------ #
    #: [struct] ext4 journal: ~3 metadata blocks + commit per namespace op.
    ext4_journal_bytes: int = 384
    #: [calib] jbd2 transaction bookkeeping under the journal lock.
    ext4_journal_cpu: float = 1800.0
    #: [calib] PMFS undo-log write + fence per metadata op.
    pmfs_undo_cost: float = 800.0
    #: [calib] NOVA per-inode log append.
    nova_log_append: float = 700.0
    #: [calib] WineFS alignment bookkeeping.
    winefs_alloc_cpu: float = 120.0
    #: [struct] OdinFS delegation threads per socket.
    odinfs_delegates_per_socket: int = 4

    # -- striped PM volume / I/O delegation (modeled only) -------------- #
    #: [struct] handing one extent to a member's delegation queue: the
    #: enqueue, the latch bookkeeping and the completion wake-up.
    delegate_enqueue: float = 350.0
    #: [hw] one member device's saturation write bandwidth (bytes/ns): the
    #: point its write-pending queues stop absorbing more streams.
    pm_dev_write_bw: float = 12.0
    pm_dev_read_bw: float = 15.0
    #: [hw] what a single delegation stream sustains against one member
    #: (bytes/ns); extra workers add streams until the device saturates.
    pm_stream_write_bw: float = 4.0
    pm_stream_read_bw: float = 5.0
    #: [calib] SplitFS userspace bookkeeping per data op.
    splitfs_user_cpu: float = 180.0
    #: [calib] Strata: log append + amortized trusted digestion per
    #: metadata op ("verify every metadata operation").
    strata_digest_cpu: float = 3500.0

    # ------------------------------------------------------------------ #
    # Trio sharing (§5.4 / Table 4)
    # ------------------------------------------------------------------ #
    #: [calib] verifier throughput (bytes/ns) when walking core state.
    verify_bw: float = 2.0
    #: [calib] snapshot copy throughput (bytes/ns).
    snapshot_bw: float = 4.0
    #: [calib] kernel map/unmap + grant bookkeeping per ownership transfer.
    transfer_fixed: float = 1500.0
    #: [calib] aux-state rebuild per dentry on re-acquire.
    rebuild_per_entry: float = 55.0

    # -- verification stages (kernel/verifier.py), priced per worker ------ #
    #: [struct] serial enumerate stage: record read + staging setup.
    verify_enumerate_fixed: float = 1200.0
    #: [struct] per-page cost of the serial chain walk (index-slot reads).
    verify_enumerate_per_page: float = 25.0
    #: [calib] one page check: bitmap probe, owner lookup, header read.
    #: 4096 B / verify_bw ≈ 2048 ns is the serial seed's per-page verify
    #: cost; the check itself (metadata only, no payload walk) is ~600 ns.
    verify_page_check: float = 600.0
    #: [calib] one dentry check: shadow/pending lookups + record read.
    verify_dentry_check: float = 350.0
    #: [struct] serial commit stage: applying the StagedUpdate under the
    #: controller lock.
    verify_commit_fixed: float = 300.0
    verify_commit_per_entry: float = 20.0

    # ------------------------------------------------------------------ #
    # Machine shape
    # ------------------------------------------------------------------ #
    cores_per_socket: int = 24
    sockets: int = 2

    # ------------------------------------------------------------------ #
    # Derived helpers
    # ------------------------------------------------------------------ #

    def socket_of(self, tid: int) -> int:
        return (tid // self.cores_per_socket) % self.sockets

    def pm_lat(self, tid: int, read: bool) -> float:
        """PM access latency seen by thread ``tid`` (half the accesses hit
        the remote socket on an interleaved namespace; we fold that into a
        per-socket factor: socket-0 threads are 'near', socket-1 remote)."""
        base = self.pm_read_lat if read else self.pm_write_lat
        if self.socket_of(tid) == 0:
            return base
        return base * self.numa_remote_factor

    def pm_bw_time(self, nbytes: int, read: bool) -> float:
        per = self.pm_read_bw_per_dimm if read else self.pm_write_bw_per_dimm
        return nbytes / per

    def verify_time(self, nbytes: int) -> float:
        return self.transfer_fixed + nbytes / self.verify_bw

    def alloc_refill_time(self, batch: int) -> float:
        """Time inside the shared lock for one pool refill of ``batch``."""
        return self.alloc_refill_base + batch * self.alloc_refill_per_page

    def alloc_global_time(self) -> float:
        """Time inside the shared lock for one legacy per-page alloc."""
        return self.alloc_global_cs

    def verify_pipeline_time(self, pages: int, dentries: int = 0,
                             workers: int = 1) -> float:
        """One ownership-transfer verification with ``workers`` check shards.

        Enumerate and commit are serial (the Amdahl fraction); the page and
        dentry checks cost what their slowest stride shard costs — the same
        convention as the fsck worker model.  ``workers=1`` is the serial
        seed path.
        """
        w = max(1, workers)
        serial = (self.verify_enumerate_fixed
                  + pages * self.verify_enumerate_per_page
                  + self.verify_commit_fixed
                  + dentries * self.verify_commit_per_entry)
        parallel = (math.ceil(pages / w) * self.verify_page_check
                    + math.ceil(dentries / w) * self.verify_dentry_check)
        return serial + parallel

    @staticmethod
    def verify_critical_units(batch_sizes: Mapping[int, int],
                              workers: int = 1) -> int:
        """Check units on the slowest of ``workers`` check shards, summed
        over one run's batches (``PipelineStats.batch_sizes``: batch size
        -> how many): a batch of ``n`` dealt round-robin puts at most
        ``ceil(n / workers)`` on any shard.  ``workers=1`` is every unit."""
        w = max(1, workers)
        return sum(count * -(-size // w) for size, count in batch_sizes.items())

    # -- whole-volume fsck (repro.fsck) --------------------------------- #

    def fsck_phase_time(self, slots: int, work: Mapping[int, Tuple[int, int]],
                        pages_claimed: int, workers: int = 1) -> Dict[str, float]:
        """Modeled ns of fsck's scan, cross-check and graph phases, priced
        from one serial run's counts as if ``workers`` workers ran them.

        ``slots`` is the inode table's size, ``work`` maps each valid inode
        to (pages read, dentries parsed), ``pages_claimed`` is what the
        graph merge reconciled.  The scan deals every slot, the cross-check
        every valid inode, round-robin over the workers (striping balances
        the shards even when the live slots cluster low); each of those
        phases costs what its slowest shard costs.  The graph merge is
        serial: Amdahl's fraction, the same at every worker count.
        """
        record = self.pm_read_lat + self.pm_bw_time(InodeRecord.SIZE, read=True)
        page = self.pm_read_lat + self.pm_bw_time(PAGE_SIZE, read=True)
        w = max(1, min(workers, slots))
        # Scan shard i reads the records of slots i, i + w, ... and the
        # chains hanging off the valid ones: a PM read per record and per
        # page (latency + bandwidth), CPU per dentry parsed.
        pages, dentries = [0] * w, [0] * w
        for ino, (npages, ndentries) in work.items():
            pages[ino % w] += npages
            dentries[ino % w] += ndentries
        scan = max(len(range(i, slots, w)) * record + pages[i] * page
                   + dentries[i] * self.lookup_cpu for i in range(w))
        # Cross-check shard i takes the i-th, (i + w)-th, ... valid inode:
        # bookkeeping per inode, two table lookups per dentry target.
        inos = sorted(work)
        w = max(1, min(workers, len(inos)))
        check = max(len(inos[i::w]) * self.op_cpu
                    + sum(work[ino][1] for ino in inos[i::w]) * 2 * self.lookup_cpu
                    for i in range(w))
        # The merge: reachability over the edge set and the page-claim /
        # bitmap reconciliation.
        edges = sum(ndentries for _npages, ndentries in work.values())
        graph = (edges * self.lookup_cpu + pages_claimed * self.lookup_cpu
                 + self.op_cpu)
        return {"scan": scan, "check": check, "graph": graph}

    # -- striped array / delegation ------------------------------------- #

    def device_bw(self, streams: int, read: bool = False) -> float:
        """One member's effective bandwidth (bytes/ns) under ``streams``
        concurrent delegation streams: per-stream bandwidth accumulates
        until the device's saturation point (the bandwidth curve OdinFS's
        per-socket delegate sizing targets)."""
        per = self.pm_stream_read_bw if read else self.pm_stream_write_bw
        peak = self.pm_dev_read_bw if read else self.pm_dev_write_bw
        return min(peak, max(1, streams) * per)

    def delegate_service_time(self, nbytes: int, devices: int = 1,
                              read: bool = False) -> float:
        """Time one delegation worker holds its device for this extent's
        per-device share: the device's media latency plus the share at a
        single stream's bandwidth.  This is the ``use``-resource service
        time of the odinfs recipe — concurrency across devices (and queuing
        behind a saturated one) is emergent from the DES."""
        lat = self.pm_read_lat if read else self.pm_write_lat
        share = math.ceil(nbytes / max(1, devices))
        per = self.pm_stream_read_bw if read else self.pm_stream_write_bw
        return lat + share / per

    def delegate_io_time(self, nbytes: int, devices: int = 1,
                         workers_per_device: int = 1,
                         read: bool = False) -> float:
        """End-to-end modeled time of one delegated extent I/O: enqueue the
        batch, then every member drives its share in parallel at the
        bandwidth ``workers_per_device`` streams achieve against it."""
        lat = self.pm_read_lat if read else self.pm_write_lat
        share = math.ceil(nbytes / max(1, devices))
        return (self.delegate_enqueue + lat
                + share / self.device_bw(workers_per_device, read))


#: The model instance used throughout the benchmarks.
COST = CostModel()
