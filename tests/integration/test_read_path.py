"""Threaded stress tests for how the patched system reads.

Lookups race removes/inserts/rebuilds under the §4.5 patch (RCU readers,
every chain mutation one store): stable entries must always be found,
nothing may fault, and deferred frees must drain after a barrier.  The
seqlock file-read path is stressed for read *consistency*: a validated
``pread`` must never return a mix of two overlapping writes.
"""

import sys
import threading

from repro.concurrency.rcu import RCU
from repro.core.config import ARCKFS_PLUS
from repro.kernel.controller import KernelController
from repro.libfs.hashtable import DirHashTable, NodeFreelist
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


def _table():
    return DirHashTable(ARCKFS_PLUS, RCU("stress.rcu"), NodeFreelist(), tag="t")


def _insert(table, name, ino):
    bucket = table.bucket_of(name)
    with bucket.lock:
        table.insert_locked(bucket, table.freelist.alloc(name, ino, 1, 1, 1, None))


class TestLookupVsChurn:
    def test_stable_keys_survive_remove_insert_churn(self):
        table = _table()
        stable = [f"stable{i}".encode() for i in range(16)]
        churn = [f"churn{i}".encode() for i in range(16)]
        for i, name in enumerate(stable):
            _insert(table, name, 100 + i)
        stop = threading.Event()
        errors = []

        def churner():
            try:
                while not stop.is_set():
                    for i, name in enumerate(churn):
                        _insert(table, name, 200 + i)
                    for name in churn:
                        bucket = table.bucket_of(name)
                        with bucket.lock:
                            table.remove_locked(bucket, name)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for r in range(3000):
                    name = stable[r % len(stable)]
                    node = table.lookup(name)
                    assert node is not None, f"lost stable entry {name!r}"
                    assert node.ino == 100 + (r % len(stable))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=churner)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads[1:]:
                t.start()
            threads[0].start()
            for t in threads[1:]:
                t.join()
            stop.set()
            threads[0].join()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors[0]
        # Deferred frees ride grace periods and fully drain.
        table.rcu.barrier()
        assert table.rcu.pending_callbacks() == 0
        assert table.count == len(stable)

    def test_rebuild_never_causes_spurious_miss(self):
        """A reader overlapping ``rebuild`` must see the old or the new
        chain, never the in-between (the per-bucket atomic swap)."""
        table = _table()
        entries = {
            f"stable{i}".encode(): (100 + i, 1, 1, 1, None) for i in range(24)
        }
        table.rebuild(entries)
        stop = threading.Event()
        errors = []

        def rebuilder():
            try:
                while not stop.is_set():
                    table.rebuild(entries)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for r in range(2000):
                    name = f"stable{r % 24}".encode()
                    node = table.lookup(name)
                    assert node is not None, f"spurious miss on {name!r}"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=rebuilder)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads[1:]:
                t.start()
            threads[0].start()
            for t in threads[1:]:
                t.join()
            stop.set()
            threads[0].join()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors[0]
        table.rcu.barrier()
        assert table.rcu.pending_callbacks() == 0


class TestOptimisticPread:
    def test_validated_read_is_never_torn(self):
        """Concurrent whole-file preads against alternating whole-file
        pwrites: every returned buffer is one write's image, never a mix."""
        config = ARCKFS_PLUS
        device = PMDevice(32 * 1024 * 1024)
        kernel = KernelController.fresh(device, inode_count=64, config=config)
        fs = LibFS(kernel, "app", uid=1000, config=config)
        size = 8192
        fd = fs.open("/f", create=True)
        fs.pwrite(fd, b"A" * size, 0)
        patterns = (b"A" * size, b"B" * size)
        stop = threading.Event()
        errors = []

        def writer():
            try:
                i = 0
                while not stop.is_set():
                    fs.pwrite(fd, patterns[i % 2], 0)
                    i += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                rfd = fs.open("/f")
                for _ in range(400):
                    out = fs.pread(rfd, size, 0)
                    assert out in patterns, "torn read escaped validation"
                fs.close(rfd)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads[1:]:
                t.start()
            threads[0].start()
            for t in threads[1:]:
                t.join()
            stop.set()
            threads[0].join()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors[0]
        # The folded per-thread stats are exact after quiescence.
        assert fs.stats.reads == 2 * 400 + 0
        fs.shutdown()

    def test_release_reattach_under_optimistic_readers(self):
        """Voluntary release concurrent with optimistic preads: readers
        either validate against the old mapping or fault, retry and
        re-attach — no SimulatedBusError escapes."""
        config = ARCKFS_PLUS
        device = PMDevice(32 * 1024 * 1024)
        kernel = KernelController.fresh(device, inode_count=64, config=config)
        fs = LibFS(kernel, "app", uid=1000, config=config)
        payload = b"payload!" * 512
        fs.write_file("/f", payload)
        # Verify the root in place so releasing /f passes the connectivity
        # check (Rule (1): a child's release verifies against its parent).
        fs.commit_path("/")
        ino = fs.stat("/f").ino
        stop = threading.Event()
        errors = []

        def releaser():
            try:
                while not stop.is_set():
                    fs.release_ino(ino)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                rfd = fs.open("/f")
                for _ in range(300):
                    out = fs.pread(rfd, len(payload), 0)
                    assert out == payload
                fs.close(rfd)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=releaser)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads[1:]:
                t.start()
            threads[0].start()
            for t in threads[1:]:
                t.join()
            stop.set()
            threads[0].join()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors[0]
        fs.shutdown()
