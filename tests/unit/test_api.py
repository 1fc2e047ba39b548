"""The `repro.api` Volume/Session facade."""

import tracemalloc

import pytest

from repro.api import Session, Volume, VolumeConfig
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.errors import InvalidArgument, NoEntry
from repro.libfs import paths
from repro.pm.layout import legal_name


class TestVolume:
    def test_create_wires_the_stack(self):
        with Volume.create(16 * 1024 * 1024, VolumeConfig(inode_count=64)) as vol:
            assert vol.kernel.device is vol.device
            assert vol.config.name == ARCKFS_PLUS.name
            assert repr(vol)

    def test_session_is_a_working_libfs(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as fs:
                fs.mkdir("/d")
                fs.write_file("/d/f", b"payload")
                assert fs.read_file("/d/f") == b"payload"
                assert isinstance(fs, Session)
                assert not fs.closed
            assert fs.closed

    def test_session_exit_releases_everything(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as fs:
                fs.write_file("/f", b"x")
            assert not vol.kernel.acquisitions
            assert vol.kernel.stats.verifications >= 1

    def test_mount_from_image(self):
        vol = Volume.create(16 * 1024 * 1024, VolumeConfig(inode_count=64))
        with vol.session("writer") as fs:
            fs.write_file("/persisted", b"survives")
        image = vol.device.durable_image()
        vol.close()

        with Volume.mount(image) as vol2:
            assert vol2.recovery is not None
            with vol2.session("reader") as fs2:
                assert fs2.read_file("/persisted") == b"survives"

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview,
                                      lambda b: memoryview(b).cast("Q")],
                             ids=["bytes", "bytearray", "memoryview",
                                  "memoryview-of-words"])
    def test_mount_takes_any_bytes_like_image(self, wrap):
        vol = Volume.create(1 << 20, VolumeConfig(inode_count=16))
        with vol.session("writer") as fs:
            fs.write_file("/kept", b"bytes-like")
        source = wrap(vol.device.durable_image())
        vol.close()
        with Volume.mount(source) as vol2:
            with vol2.session("reader") as fs2:
                assert fs2.read_file("/kept") == b"bytes-like"

    def test_mount_copies_a_bytearray_image_once(self):
        vol = Volume.create(8 << 20, VolumeConfig(inode_count=16))
        image = bytearray(vol.device.durable_image())
        vol.close()
        tracemalloc.start()
        try:
            with Volume.mount(image) as vol2:
                _, peak = tracemalloc.get_traced_memory()
                image[:] = bytes(len(image))  # the device holds its own copy
                assert vol2.device.load(0, 8) != bytes(8)
        finally:
            tracemalloc.stop()
        assert len(image) <= peak < 1.5 * len(image)

    @pytest.mark.parametrize("source", ["x", 42, None, [0] * 4096,
                                        memoryview(bytes(8192))[::2]],
                             ids=["str", "int", "None", "list",
                                  "strided-view"])
    def test_mount_refuses_what_is_neither_device_nor_buffer(self, source):
        with pytest.raises(InvalidArgument):
            Volume.mount(source)

    def test_mount_rejects_garbage(self):
        with pytest.raises(Exception):
            Volume.mount(b"\0" * 4096)

    def test_config_and_tuning_overrides(self):
        tuned = ARCKFS.with_patch(rcu_buckets=True)
        with Volume.create(16 * 1024 * 1024,
                           VolumeConfig(config=tuned)) as vol:
            cfg = vol.config
            assert cfg.rcu_buckets and not cfg.global_rename_lock
            assert vol.kernel.verifier.config is tuned

    def test_fsck_through_facade(self):
        tuned = ARCKFS_PLUS.with_patch(rcu_buckets=False)
        with Volume.create(16 * 1024 * 1024,
                           VolumeConfig(config=tuned)) as vol:
            with vol.session("app1") as fs:
                fs.mkdir("/d")
                for i in range(8):
                    fs.write_file(f"/d/f{i}", b"z" * 4096)
                    fd = fs.open(f"/d/f{i}")
                    fs.close(fd)
                fs.release_all()
            vol.quiesce()
            report = vol.fsck()
            assert report.clean, report.summary()

    def test_close_is_idempotent_and_shuts_sessions(self):
        vol = Volume.create(16 * 1024 * 1024)
        s1 = vol.session("a")
        s2 = vol.session("b")
        s1.write_file("/f", b"x")
        vol.close()
        assert s1.closed and s2.closed
        vol.close()  # no-op

    def test_sessions_raise_fs_errors_unchanged(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as fs:
                with pytest.raises(NoEntry):
                    fs.open("/does-not-exist")

    def test_nul_in_a_name_is_refused_before_anything_is_taken(self):
        """A NUL is what fsck reads as a dentry whose body never persisted:
        the kernel used to verify ``/a\\0b`` and fsck then called the volume
        corrupt (torn-dentry + orphan-inode).  Refused where ``.``/``..``
        are, before an inode slot is handed out."""
        with Volume.create(16 * 1024 * 1024, VolumeConfig(inode_count=64)) as vol:
            with vol.session("app1") as fs:
                fs.write_file("/ok", b"x")
                fs.release_all()
                tx = fs.transaction()
                for attempt in (lambda: fs.creat("/a\0b"),
                                lambda: fs.mkdir("/d\0"),
                                lambda: fs.write_file("/\0", b"x"),
                                lambda: fs.rename("/ok", "/a\0b"),
                                lambda: tx.create("/t\0x")):
                    with pytest.raises(InvalidArgument):
                        attempt()
                tx.abort()
                assert not vol.kernel.pending
                # The str-level check agrees with the on-media rule.
                for name in ("a\0b", "\0", ".", "..", "ok", "\u00e9t\u00e9"):
                    try:
                        paths.normalize("/" + name)
                        accepted = True
                    except InvalidArgument:
                        accepted = False
                    assert accepted == legal_name(name.encode()), name
                fs.release_all()
                assert fs.readdir("/") == ["ok"]
            assert vol.fsck().clean

    def test_old_constructors_still_work(self):
        # The facade wraps — it does not replace — the layered API.
        from repro.kernel.controller import KernelController
        from repro.libfs.libfs import LibFS
        from repro.pm.device import PMDevice

        device = PMDevice(16 * 1024 * 1024)
        kernel = KernelController.fresh(device, inode_count=64,
                                        config=ARCKFS_PLUS)
        fs = LibFS(kernel, "legacy", uid=1000)
        fs.write_file("/f", b"old school")
        fs.release_all()
        assert kernel.stats.verifications >= 1


class TestIdempotentClose:
    """Session teardown is idempotent — the server's eviction/drain/
    disconnect races all funnel into Session.shutdown and must collapse
    to one winner, never a double-release."""

    def test_double_close_does_not_raise(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            s = vol.session("app1")
            s.write_file("/f", b"x")
            s.close()
            s.close()          # second winner: no-op
            s.shutdown()       # and the explicit spelling too
            assert s.closed

    def test_context_exit_after_explicit_close(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as s:
                s.write_file("/f", b"x")
                s.close()      # e.g. an eviction won the race
            assert s.closed    # __exit__ tolerated the earlier close

    def test_close_with_fd_still_closes_descriptors(self):
        # close() is dual-purpose: close(fd) forwards to the LibFS
        # descriptor close; close() tears the session down.
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as s:
                fd = s.creat("/f")
                s.pwrite(fd, b"data", 0)
                s.close(fd)
                assert not s.closed
                assert s.read_file("/f") == b"data"

    def test_concurrent_close_single_winner(self):
        import threading

        with Volume.create(16 * 1024 * 1024) as vol:
            s = vol.session("app1")
            s.write_file("/f", b"x")
            errs = []
            barrier = threading.Barrier(4)

            def racer():
                barrier.wait()
                try:
                    s.shutdown()
                except Exception as exc:  # pragma: no cover
                    errs.append(exc)

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errs == []
            assert s.closed
            assert not vol.kernel.acquisitions

    def test_shutdown_detaches_from_volume(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            s1 = vol.session("a")
            s2 = vol.session("b")
            assert set(vol.live_sessions) == {s1, s2}
            s1.shutdown()
            assert vol.live_sessions == [s2]
            s1.shutdown()  # idempotent: no double-detach
            assert vol.live_sessions == [s2]

    def test_volume_close_then_session_shutdown(self):
        vol = Volume.create(16 * 1024 * 1024)
        s = vol.session("app1")
        vol.close()
        assert s.closed
        s.shutdown()  # already closed by the volume: no-op, no raise


class TestDimensionalIdentity:
    def test_volume_names_explicit_and_auto(self):
        with Volume.create(16 * 1024 * 1024, VolumeConfig(name="scratch")) as vol:
            assert vol.name == "scratch"
        with Volume.create(16 * 1024 * 1024) as a, \
                Volume.create(16 * 1024 * 1024) as b:
            assert a.name.startswith("vol") and b.name.startswith("vol")
            assert a.name != b.name

    def test_session_labels_identify_app_and_volume(self):
        with Volume.create(16 * 1024 * 1024, VolumeConfig(name="v")) as vol:
            with vol.session("app1") as fs:
                assert fs.labels == {"app_id": "app1", "volume": "v"}

    def test_facade_calls_carry_ambient_labels_into_metrics(self):
        from repro import obs

        with Volume.create(16 * 1024 * 1024, VolumeConfig(name="metricsvol")) as vol:
            with vol.session("worker") as fs:
                obs.enable()
                fd = fs.creat("/labelled.bin")
                fs.pwrite(fd, b"x" * 64, 0)
                fs.close(fd)
                obs.disable()
        h = obs.metrics.snapshot()["histograms"]
        key = "libfs.syscall.creat.ns{app_id=worker,volume=metricsvol}"
        assert h[key]["count"] == 1
        # The base name still aggregates across the labelled series.
        assert h["libfs.syscall.ns"]["count"] >= 3

    def test_labels_do_not_leak_after_the_call(self):
        from repro import obs

        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("leaky") as fs:
                fs.write_file("/f", b"data")
                assert obs.context_labels() == {}


class TestForwarder:
    """A public LibFS verb is bound on the session at first use; whether a
    call carries the session's labels is decided when it is made."""

    def test_a_verb_bound_while_off_is_labelled_once_on(self):
        from repro import obs

        with Volume.create(16 * 1024 * 1024, VolumeConfig(name="fwd")) as vol:
            with vol.session("binder") as s:
                s.write_file("/f", b"x")            # bound with obs off
                assert "write_file" in vars(s)
                bound = s.write_file
                obs.enable()
                s.write_file("/f", b"y")
                obs.disable()
                assert s.write_file is bound        # bound once
        h = obs.metrics.snapshot()["histograms"]
        assert h["libfs.syscall.write_file.ns{app_id=binder,volume=fwd}"]["count"] == 1

    def test_stats_are_read_fresh_and_private_names_never_bound(self):
        with Volume.create(16 * 1024 * 1024) as vol:
            with vol.session("app1") as s:
                before = s.stats
                s.write_file("/f", b"x")
                assert s.stats.writes == before.writes + 1
                assert s.stats is not s.stats       # folded on every read
                assert "stats" not in vars(s)
                own = set(vars(s))
                assert s._stats is s.fs._stats      # forwarded...
                assert s._resolve(paths.parse("/f")).ino == s.stat("/f").ino
                assert set(vars(s)) == own | {"stat"}   # ...never bound

    def test_close_and_transaction_are_the_sessions_own(self):
        from repro import obs

        with Volume.create(16 * 1024 * 1024, VolumeConfig(name="own")) as vol:
            with vol.session("app1") as s:
                obs.enable()
                fd = s.creat("/f")
                s.close(fd)                         # the descriptor only
                assert not s.closed
                with s.transaction() as tx:
                    tx.pwrite("/f", b"tx", 0)
                obs.disable()
                assert "close" not in vars(s) and "transaction" not in vars(s)
                assert s.read_file("/f") == b"tx"
                s.close()                           # the session
                assert s.closed
        h = obs.metrics.snapshot()["histograms"]
        assert h["libfs.syscall.close.ns{app_id=app1,volume=own}"]["count"] == 1
