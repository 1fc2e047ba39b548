"""Unit tests for the read path's primitives.

Covers the seqcount discipline (`repro.concurrency.seqlock`), per-thread
sharded stats (`repro.concurrency.percpu`), the sharded obs Counter,
and the two satellite bug fixes in `DirHashTable`:

* the ``count`` race — the seed mutated one shared int under *different*
  bucket locks, losing updates (now per-bucket shards folded on read);
* ``items()`` returning a generator that held the RCU read section open
  across consumer code (now a list built inside the section).
"""

import sys
import threading

import pytest

from repro.concurrency.percpu import ShardedStats
from repro.concurrency.rcu import RCU
from repro.concurrency.seqlock import SeqCount
from repro.core.config import ARCKFS_PLUS
from repro.libfs.hashtable import DirHashTable, NodeFreelist


class TestSeqCount:
    def test_write_parity(self):
        s = SeqCount("t")
        assert s.sequence == 0
        s.write_begin()
        assert s.sequence & 1 == 1
        s.write_end()
        assert s.sequence == 2

    def test_read_validates_quiescent(self):
        s = SeqCount("t")
        start = s.read_begin()
        assert not s.read_retry(start)

    def test_read_detects_overlapping_write(self):
        s = SeqCount("t")
        start = s.read_begin()
        with s.write():
            pass  # a write completed inside the reader's window
        assert s.read_retry(start)

    def test_read_begin_waits_out_writer(self):
        s = SeqCount("t")
        s.write_begin()
        got = []

        def reader():
            got.append(s.read_begin())

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()  # parked on the odd sequence
        s.write_end()
        t.join(timeout=5)
        assert not t.is_alive()
        assert got == [2]

    def test_torn_read_detected_under_thread_churn(self):
        """A reader never validates a window that a writer overlapped."""
        s = SeqCount("t")
        shared = {"a": 0, "b": 0}  # writer keeps a == b
        stop = threading.Event()
        lock = threading.Lock()

        def writer():
            i = 0
            while not stop.is_set():
                i += 1
                with lock, s.write():
                    shared["a"] = i
                    shared["b"] = i

        torn_validated = []

        def reader():
            for _ in range(4000):
                start = s.read_begin()
                a, b = shared["a"], shared["b"]
                if not s.read_retry(start) and a != b:
                    torn_validated.append((a, b))

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            w.start()
            r.start()
            r.join()
            stop.set()
            w.join()
        finally:
            sys.setswitchinterval(old)
        assert torn_validated == []


class TestShardedStats:
    def test_fold_returns_dataclass(self):
        from repro.libfs.libfs import LibFSStats

        s = ShardedStats(LibFSStats)
        s.cells()["reads"] += 1
        s.cells()["bytes_read"] += 4096
        folded = s.fold()
        assert isinstance(folded, LibFSStats)
        assert folded.reads == 1 and folded.bytes_read == 4096
        assert folded.writes == 0

    def test_typo_raises(self):
        from repro.libfs.libfs import LibFSStats

        s = ShardedStats(LibFSStats)
        with pytest.raises(KeyError):
            s.cells()["raeds"] += 1

    def test_multithread_exact(self):
        from repro.libfs.libfs import LibFSStats

        s = ShardedStats(LibFSStats)

        def worker():
            for _ in range(5000):
                s.cells()["lookups"] += 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.fold().lookups == 20_000


class TestObsCounterSharded:
    def test_exact_under_threads(self):
        from repro.obs.metrics import Counter

        c = Counter("test.sharded")

        def worker():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert c.value == 80_000

    def test_negative_rejected(self):
        from repro.obs.metrics import Counter

        with pytest.raises(ValueError):
            Counter("t").inc(-1)


def _table():
    return DirHashTable(ARCKFS_PLUS, RCU("test.rcu"), NodeFreelist(), tag="t")


class TestCountRace:
    """Regression for the seed's shared-int count.

    Threads insert into *different* buckets, each holding only its own
    bucket lock.  The seed's ``self.count += 1`` raced across those locks
    and lost updates; the per-bucket shards make the fold exact.
    """

    def test_concurrent_inserts_exact_count(self):
        table = _table()
        per_thread = 400
        nthreads = 8

        def worker(tid):
            for i in range(per_thread):
                name = f"t{tid}_{i}".encode()
                bucket = table.bucket_of(name)
                with bucket.lock:
                    node = table.freelist.alloc(name, 1000 + i, 1, 1, 1, None)
                    table.insert_locked(bucket, node)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert table.count == per_thread * nthreads

    def test_remove_decrements(self):
        table = _table()
        names = [f"f{i}".encode() for i in range(50)]
        for i, name in enumerate(names):
            bucket = table.bucket_of(name)
            with bucket.lock:
                table.insert_locked(
                    bucket, table.freelist.alloc(name, i + 2, 1, 1, 1, None))
        assert table.count == 50
        for name in names[:20]:
            bucket = table.bucket_of(name)
            with bucket.lock:
                assert table.remove_locked(bucket, name) is not None
        assert table.count == 30


class TestItemsSnapshot:
    def test_items_returns_list_and_exits_read_section(self):
        table = _table()
        for i in range(10):
            name = f"f{i}".encode()
            bucket = table.bucket_of(name)
            with bucket.lock:
                table.insert_locked(
                    bucket, table.freelist.alloc(name, i + 2, 1, 1, 1, None))
        snapshot = table.items()
        assert isinstance(snapshot, list)
        assert len(snapshot) == 10
        # The old generator held the read section open until exhausted; a
        # list snapshot leaves no read-side state behind, so grace periods
        # are never pinned by an abandoned readdir iterator.
        assert not table.rcu.in_read_section()
        table.rcu.synchronize()  # completes immediately — nothing pinned
