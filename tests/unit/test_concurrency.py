"""Unit tests for locks, RCU, leases and failpoints."""

import threading
import time

import pytest

from repro import obs
from repro.concurrency import RCU, FailpointRegistry, Lease, RWLock, SpinLock
from repro.concurrency.lease import LeaseExpired


class TestSpinLock:
    def test_mutual_exclusion(self):
        lock = SpinLock("t")
        counter = {"v": 0}

        def worker():
            for _ in range(500):
                with lock:
                    v = counter["v"]
                    counter["v"] = v + 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["v"] == 2000

    def test_non_reentrant_detected(self):
        lock = SpinLock()
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_release_by_non_owner_rejected(self):
        lock = SpinLock()
        lock.acquire()
        err = []

        def other():
            try:
                lock.release()
            except RuntimeError as e:
                err.append(e)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert err
        lock.release()

    def test_timeout(self):
        lock = SpinLock()
        lock.acquire()
        got = []

        def other():
            got.append(lock.acquire(timeout=0.05))

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert got == [False]
        lock.release()

    def test_held_by_me(self):
        lock = SpinLock()
        assert not lock.held_by_me()
        with lock:
            assert lock.held_by_me()


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=2)

        def reader():
            with lock.read():
                inside.wait()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(2)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        lock.acquire_write()
        got = []

        def reader():
            got.append(lock.acquire_read(timeout=0.05))

        t = threading.Thread(target=reader)
        t.start()
        t.join()
        assert got == [False]
        lock.release_write()

    def test_writer_excludes_writer(self):
        lock = RWLock()
        lock.acquire_write()
        assert lock.write_held_by_me()
        got = []

        def writer():
            got.append(lock.acquire_write(timeout=0.05))

        t = threading.Thread(target=writer)
        t.start()
        t.join()
        assert got == [False]
        lock.release_write()

    def test_writer_preference(self):
        """Once a writer waits, new readers block — release can't be starved."""
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        order = []

        def writer():
            writer_started.set()
            lock.acquire_write()
            order.append("w")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("r")
            lock.release_read()

        tw = threading.Thread(target=writer)
        tw.start()
        writer_started.wait()
        time.sleep(0.05)  # let the writer reach wait_for
        tr = threading.Thread(target=late_reader)
        tr.start()
        time.sleep(0.05)
        lock.release_read()
        tw.join(2)
        tr.join(2)
        assert order[0] == "w"

    def test_upgrade_rejected(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                # would deadlock on real hardware; we detect it
                lock.acquire_read()


class TestRCU:
    def test_synchronize_waits_for_reader(self):
        rcu = RCU()
        entered = threading.Event()
        leave = threading.Event()
        done = []

        def reader():
            with rcu.read():
                entered.set()
                leave.wait(2)

        def updater():
            rcu.synchronize()
            done.append(True)

        tr = threading.Thread(target=reader)
        tr.start()
        entered.wait(2)
        tu = threading.Thread(target=updater)
        tu.start()
        time.sleep(0.05)
        assert not done  # grace period not over while reader inside
        leave.set()
        tu.join(2)
        tr.join(2)
        assert done == [True]

    def test_new_reader_does_not_block_grace_period(self):
        rcu = RCU()
        entered = threading.Event()
        release_new = threading.Event()

        def late_reader():
            # enters AFTER synchronize started -> belongs to new epoch
            entered.wait(2)
            with rcu.read():
                release_new.wait(2)

        t = threading.Thread(target=late_reader)
        t.start()
        entered.set()
        time.sleep(0.02)
        rcu.synchronize(timeout=2)  # must not wait for the late reader
        release_new.set()
        t.join(2)

    def test_call_rcu_deferred(self):
        rcu = RCU()
        freed = []
        entered = threading.Event()
        leave = threading.Event()

        def reader():
            with rcu.read():
                entered.set()
                leave.wait(2)

        t = threading.Thread(target=reader)
        t.start()
        entered.wait(2)
        rcu.call_rcu(lambda: freed.append("node"))
        assert rcu.pending_callbacks() == 1
        assert not freed
        leave.set()
        t.join(2)
        rcu.synchronize()
        assert freed == ["node"]

    def test_nested_read_sections(self):
        rcu = RCU()
        rcu.read_lock()
        rcu.read_lock()
        rcu.read_unlock()
        assert rcu.in_read_section()
        rcu.read_unlock()
        assert not rcu.in_read_section()

    def test_synchronize_inside_reader_rejected(self):
        rcu = RCU()
        with rcu.read():
            with pytest.raises(RuntimeError):
                rcu.synchronize()

    def test_barrier_runs_all_callbacks(self):
        rcu = RCU()
        freed = []
        for i in range(5):
            rcu.call_rcu(lambda i=i: freed.append(i))
        rcu.barrier()
        assert sorted(freed) == [0, 1, 2, 3, 4]

    def test_call_rcu_runs_at_once_with_no_reader_inside(self):
        """Queued callbacks run with the first ``call_rcu`` that finds no
        reader (they used to wait for a ``synchronize`` that only shutdown
        called), and the grace-period count does not move."""
        rcu = RCU()
        freed = []
        entered = threading.Event()
        leave = threading.Event()

        def reader():
            with rcu.read():
                entered.set()
                leave.wait(2)

        t = threading.Thread(target=reader)
        t.start()
        entered.wait(2)
        rcu.call_rcu(lambda: freed.append("old"))
        leave.set()
        t.join(2)
        assert freed == [] and rcu.pending_callbacks() == 1
        rcu.call_rcu(lambda: freed.append("new"))
        assert freed == ["old", "new"] and rcu.pending_callbacks() == 0
        assert rcu.grace_periods == 0


def _counter(name, **labels):
    return obs.metrics.counter_total(name, **labels)


class TestFastPaths:
    """An acquire the state admits takes one plain lock: no Condition is
    built or notified until some thread has to wait."""

    def test_uncontended_use_builds_no_condition(self):
        lock, rcu = RWLock(), RCU()
        for _ in range(3):
            with lock.read():
                pass
            lock.acquire_write()
            lock.release_write()
            with rcu.read(), rcu.read():
                pass
        rcu.call_rcu(lambda: None)
        rcu.synchronize()
        assert lock._cond is None and rcu._cond is None
        assert (lock.read_acquisitions, lock.write_acquisitions) == (3, 3)
        assert (rcu.read_sections, rcu.grace_periods) == (3, 1)

    @pytest.mark.parametrize("side", ["read", "write"])
    def test_timed_out_waiter_leaves_no_waiter_behind(self, side):
        obs.enable()
        lock = RWLock()
        lock.acquire_write()
        got = []

        def waiter():
            if side == "read":
                got.append(lock.acquire_read(timeout=0.05))
            else:
                got.append(lock.acquire_write(timeout=0.05))

        t = threading.Thread(target=waiter)
        t.start()
        t.join(2)
        assert got == [False]
        assert lock._waiters == 0 and lock._writers_waiting == 0
        assert _counter("lock.contended", kind=f"rw_{side}") == 1
        lock.release_write()
        lock.acquire_read()
        lock.release_read()
        lock.acquire_write()
        lock.release_write()
        assert _counter("lock.contended") == 1  # both took the fast path

    def test_writer_timeout_wakes_the_readers_it_held_back(self):
        lock = RWLock()
        lock.acquire_read()
        writer_waiting = threading.Event()
        got = []

        def writer():
            writer_waiting.set()
            got.append(lock.acquire_write(timeout=0.1))

        def reader():
            start = time.monotonic()
            got.append(lock.acquire_read(timeout=5))
            got.append(time.monotonic() - start)
            lock.release_read()

        tw = threading.Thread(target=writer)
        tw.start()
        writer_waiting.wait(2)
        time.sleep(0.03)  # the writer is waiting: the reader queues behind it
        tr = threading.Thread(target=reader)
        tr.start()
        tw.join(2)
        tr.join(5)
        lock.release_read()
        assert got[:2] == [False, True]
        assert got[2] < 1.0  # woken when the writer gave up, not at its own timeout

    def test_acquisitions_counted_whether_or_not_the_acquire_waited(self):
        obs.enable()
        lock = RWLock()
        lock.acquire_write()
        lock.release_write()
        lock.acquire_read()

        def writer():
            lock.acquire_write()
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)  # the writer waits behind the reader
        lock.release_read()
        t.join(2)
        assert lock.write_acquisitions == 2
        assert _counter("lock.acquisitions", kind="rw_write") == 2
        assert _counter("lock.acquisitions", kind="rw_read") == 1
        assert _counter("lock.contended", kind="rw_write") == 1
        assert lock._cond is not None and lock._waiters == 0

    def test_synchronize_wakes_when_the_last_old_reader_leaves(self):
        rcu = RCU()
        inside = threading.Barrier(3, timeout=2)
        leave = [threading.Event(), threading.Event()]
        done = []

        def reader(i):
            with rcu.read():
                inside.wait()
                leave[i].wait(2)

        readers = [threading.Thread(target=reader, args=(i,)) for i in (0, 1)]
        for t in readers:
            t.start()
        inside.wait()
        tu = threading.Thread(target=lambda: done.append(rcu.synchronize(timeout=2)))
        tu.start()
        time.sleep(0.03)
        leave[0].set()
        readers[0].join(2)
        time.sleep(0.03)
        assert not done  # one old reader is still inside
        leave[1].set()
        tu.join(2)
        readers[1].join(2)
        assert done == [None] and rcu.grace_periods == 1 and rcu._waiters == 0


class TestLease:
    def make(self, duration=10.0):
        self.clock = {"t": 0.0}
        return Lease("rename", duration=duration, now_fn=lambda: self.clock["t"])

    def test_grant_and_exclude(self):
        lease = self.make()
        assert lease.try_acquire("app1")
        assert not lease.try_acquire("app2")
        assert lease.held_by() == "app1"

    def test_release_then_regrant(self):
        lease = self.make()
        lease.try_acquire("app1")
        lease.release("app1")
        assert lease.try_acquire("app2")

    def test_expiry_allows_steal(self):
        lease = self.make(duration=5.0)
        lease.try_acquire("app1")
        self.clock["t"] = 6.0
        assert lease.try_acquire("app2")
        assert lease.expirations == 1

    def test_stale_holder_release_fails(self):
        lease = self.make(duration=5.0)
        lease.try_acquire("app1")
        self.clock["t"] = 6.0
        lease.try_acquire("app2")
        with pytest.raises(LeaseExpired):
            lease.release("app1")

    def test_check_detects_expiry(self):
        lease = self.make(duration=5.0)
        lease.try_acquire("app1")
        lease.check("app1")
        self.clock["t"] = 6.0
        with pytest.raises(LeaseExpired):
            lease.check("app1")

    def test_reacquire_by_holder(self):
        lease = self.make()
        assert lease.try_acquire("app1")
        assert lease.try_acquire("app1")


class TestFailpoints:
    def test_noop_when_uninstalled(self):
        reg = FailpointRegistry()
        reg.hit("nothing")  # no exception

    def test_hook_and_count(self):
        reg = FailpointRegistry()
        seen = []
        reg.install("p", seen.append)
        reg.hit("p", 1)
        reg.hit("p", 2)
        assert seen == [1, 2]
        reg.remove("p")
        reg.hit("p", 3)
        assert seen == [1, 2]

    def test_once(self):
        reg = FailpointRegistry()
        seen = []
        reg.once("p", seen.append)
        reg.hit("p", "a")
        reg.hit("p", "b")
        assert seen == ["a"]

    def test_park_choreography(self):
        reg = FailpointRegistry()
        point = reg.park("p", timeout=2.0)
        log = []

        def victim():
            log.append("before")
            reg.hit("p")
            log.append("after")

        t = threading.Thread(target=victim)
        t.start()
        assert point.wait_arrived(2)
        log.append("interleaved")
        point.release()
        t.join(2)
        assert log == ["before", "interleaved", "after"]


class TestLeaseBackoff:
    def test_release_by_never_holder_raises(self):
        lease = Lease("rename", duration=10.0)
        lease.try_acquire("app1")
        with pytest.raises(LeaseExpired):
            lease.release("intruder")
        assert lease.held_by() == "app1"  # the real holder is unaffected

    def test_acquire_backs_off_exponentially(self, monkeypatch):
        from repro.concurrency import lease as lease_mod

        clock = {"t": 0.0}
        lease = Lease("rename", duration=100.0, now_fn=lambda: clock["t"])
        lease.try_acquire("hoarder")
        sleeps = []

        def fake_sleep(d):
            sleeps.append(d)
            clock["t"] += d

        monkeypatch.setattr(lease_mod.time, "monotonic", lambda: clock["t"])
        monkeypatch.setattr(lease_mod.time, "sleep", fake_sleep)
        assert not lease.acquire("other", timeout=1.0, poll=0.001)
        # Doubles from poll and caps at poll*16 — far fewer wakeups than the
        # old fixed-interval poll (1000 sleeps for this timeout).
        assert sleeps[0] == pytest.approx(0.001)
        assert sleeps[1] == pytest.approx(0.002)
        assert sleeps[2] == pytest.approx(0.004)
        assert max(sleeps) <= 0.016 + 1e-12
        assert len(sleeps) < 100

    def test_acquire_succeeds_after_release_despite_backoff(self):
        lease = Lease("rename", duration=10.0)
        lease.try_acquire("first")
        got = []

        def waiter():
            got.append(lease.acquire("second", timeout=2.0, poll=0.001))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        lease.release("first")
        t.join(3)
        assert got == [True]

