#!/usr/bin/env python3
"""Inode sharing, the §3.1 attack, and trust groups (§5.4).

Four acts:

1. two well-behaved applications ping-pong a file through verified
   ownership transfers — and pay the verification/snapshot cost;
2. the same with a trust group — the cost vanishes;
3. act 1's verification priced for 4 workers — the cost is still paid,
   but the cost model's critical path over the check batches act 1
   counted shrinks by about the worker count (the checks themselves ran
   once, on the calling thread);
4. the paper's §3.1 attack: a malicious app tries to use directory
   relocation to delete files it cannot write; Trio's verifier detects the
   corruption and rolls back.

Run:  python examples/sharing_demo.py
"""

from repro.api import Volume, VolumeConfig
from repro.core.config import ARCKFS_PLUS
from repro.errors import CorruptionDetected
from repro.libfs.libfs import LibFS
from repro.perf.costmodel import COST


def ping_pong(group):
    """Six ownership transfers of one file; returns the verifier's check
    batch histogram (batch size -> how many)."""
    with Volume.create(64 * 1024 * 1024, VolumeConfig(inode_count=256)) as vol:
        kernel = vol.kernel
        a = vol.session("writer-a", uid=1000, group=group)
        b = vol.session("writer-b", uid=1000, group=group)
        a.write_file("/shared.bin", b"\0" * (512 * 1024))
        a.release_all()
        v0, s0 = kernel.stats.bytes_verified, kernel.stats.snapshot_bytes
        for round_no in range(6):
            app = (a, b)[round_no % 2]
            fd = app.open("/shared.bin")
            app.pwrite(fd, f"round {round_no}".encode(), round_no * 4096)
            app.close(fd)
            app.release_all()
        label = f"trust group {group!r}" if group else "no trust group"
        print(f"  [{label}] per-transfer: "
              f"{(kernel.stats.bytes_verified - v0) / 6:,.0f} B verified, "
              f"{(kernel.stats.snapshot_bytes - s0) / 6:,.0f} B snapshotted, "
              f"{kernel.stats.group_skips} skipped verifications")
        return dict(kernel.verifier.pstats.batch_sizes)


def priced(batch_sizes, workers: int) -> None:
    serial = COST.verify_critical_units(batch_sizes)
    critical = COST.verify_critical_units(batch_sizes, workers)
    print(f"  [pipelined x{workers}] critical path {critical} of {serial} "
          f"check units, {serial / critical:.1f}x shorter than serial")


def attack():
    # No context manager here: mallory's session is left dirty on purpose
    # (a clean close would re-verify the corrupted directory and raise).
    vol = Volume.create(32 * 1024 * 1024, VolumeConfig(inode_count=256))
    kernel = vol.kernel
    owner = vol.session("owner", uid=2000)
    owner.mkdir("/dir1", mode=0o777)
    owner.mkdir("/dir1/dir3", mode=0o755)  # attacker has NO write access
    owner.write_file("/dir1/dir3/file1", b"must survive")
    owner.mkdir("/dir2", mode=0o777)
    owner.release_all()

    # A LibFS built by hand runs whatever flags its application chose.
    mallory = LibFS(
        kernel, "mallory", uid=1000,
        config=ARCKFS_PLUS.with_patch(rename_commit_protocol=False,
                                      global_rename_lock=False,
                                      name="malicious"))
    mallory.rename("/dir1/dir3", "/dir2/dir3")  # ② no commits, no lease
    try:
        mallory.release_path("/dir1")  # ④
        print("  !! attack succeeded (should never happen)")
    except CorruptionDetected as exc:
        print(f"  verifier rejected dir1's release: {exc}")
        print(f"  kernel rolled back ({kernel.stats.rollbacks} rollbacks so far)")
    mallory.release_ino(0)
    print("  owner still sees:", owner.readdir("/dir1"),
          "->", owner.read_file("/dir1/dir3/file1").decode())


def main() -> None:
    print("1) verified ownership transfers:")
    batch_sizes = ping_pong(group=None)
    print("2) inside a trust group:")
    ping_pong(group="analytics-team")
    print("3) pipelined verification (act 1 priced for 4 workers):")
    priced(batch_sizes, workers=4)
    print("4) the §3.1 directory-relocation attack:")
    attack()


if __name__ == "__main__":
    main()
