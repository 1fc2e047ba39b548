"""The §3.1 attack: malicious directory relocation cannot delete protected
files.  "Trio correctly handles this scenario by detecting corruption at
Step ④ and rolling back dir1, preventing the deletion of dir3 and file1."

App1 (malicious, uid 1000) has write access to dir1 and dir2 but NOT to
dir3 or file1.  It relocates dir3 into dir2 without following the rules,
releases dir1 (verification fails, dir1 rolls back with dir3 intact),
then corrupts dir2 and releases it (verification fails, dir2 rolls back to
empty).  App2 (well-behaved, uid 2000, the owner) sees everything intact.

The paper found *no inherent vulnerability* in Trio: the attack fails under
both the ArckFS and the ArckFS+ verifier.
"""

import pytest

from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.errors import CorruptionDetected
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice

FILE_CONTENT = b"precious payload that must survive"


def setup_world(config):
    device = PMDevice(16 * 1024 * 1024)
    kernel = KernelController.fresh(device, inode_count=256, config=config)
    owner = LibFS(kernel, "app2", uid=2000, config=config)
    # World-writable dir1/dir2; dir3/file1 writable only by app2.
    owner.mkdir("/dir1", mode=0o777)
    owner.mkdir("/dir1/dir3", mode=0o755)
    fd = owner.creat("/dir1/dir3/file1", mode=0o644)
    owner.pwrite(fd, FILE_CONTENT, 0)
    owner.close(fd)
    owner.mkdir("/dir2", mode=0o777)
    owner.release_all()
    return device, kernel, owner


def corrupt_dir(attacker: LibFS, path: str) -> None:
    """Scribble over the directory's log pages through the mapping."""
    mi = attacker._attach(attacker.stat(path).ino, write=True)
    cs = mi.cs
    for page_no in cs.dir_pages(mi.record):
        off = attacker.geom.page_off(page_no)
        mi.mapping.store(off, b"\xde\xad\xbe\xef" * 1024)
        mi.mapping.persist(off, 4096)


@pytest.mark.parametrize("config", [ARCKFS, ARCKFS_PLUS], ids=["arckfs", "arckfs+"])
def test_attack_is_foiled(config):
    device, kernel, owner = setup_world(config)
    # The attacker's LibFS does not follow the multi-inode rules.
    attacker = LibFS(kernel, "app1", uid=1000,
                     config=config.with_patch(rename_commit_protocol=False,
                                              global_rename_lock=False,
                                              name="malicious"))

    # ① acquire dir1 and dir2 — ② move dir3 into dir2 (no commits).
    attacker.rename("/dir1/dir3", "/dir2/dir3")

    dir2_ino = kernel.shadow[0].children[b"dir2"]

    # ④ release dir1 -> verification fails (I3), dir1 rolls back.
    with pytest.raises(CorruptionDetected, match="I3"):
        attacker.release_path("/dir1")
    attacker.release_ino(0)  # hand the root back (ownership is exclusive)

    # ⑤ App2 acquires dir1 and still sees dir3 and file1.
    assert owner.readdir("/dir1") == ["dir3"]
    assert owner.readdir("/dir1/dir3") == ["file1"]
    owner.release_all()

    # ⑥ App1 corrupts dir2 and releases it -> verification fails, dir2
    # rolls back to its initial (empty) state.
    corrupt_dir(attacker, "/dir2")
    with pytest.raises(CorruptionDetected):
        attacker.release_ino(dir2_ino)
    attacker.release_ino(0)

    # The protected data is intact and readable by its owner.
    fd = owner.open("/dir1/dir3/file1")
    assert owner.pread(fd, 1024, 0) == FILE_CONTENT
    owner.close(fd)
    assert owner.readdir("/dir2") == []
    assert kernel.audit_tree() == []


@pytest.mark.parametrize("config", [ARCKFS_PLUS], ids=["arckfs+"])
def test_attack_variant_release_dir2_first(config):
    """Releasing the corrupted-new-parent side first also fails: the §4.1
    checks (no rename lease held) reject the incoming relocation."""
    device, kernel, owner = setup_world(config)
    attacker = LibFS(kernel, "app1", uid=1000,
                     config=config.with_patch(rename_commit_protocol=False,
                                              global_rename_lock=False,
                                              name="malicious"))
    attacker.rename("/dir1/dir3", "/dir2/dir3")
    with pytest.raises(CorruptionDetected, match="rename"):
        attacker.release_path("/dir2")
    attacker.release_ino(0)
    with pytest.raises(CorruptionDetected, match="I3"):
        attacker.release_path("/dir1")
    assert owner.readdir("/dir1/dir3") == ["file1"]
    assert owner.readdir("/dir2") == []


def test_attacker_cannot_acquire_protected_inode():
    device, kernel, owner = setup_world(ARCKFS_PLUS)
    attacker = LibFS(kernel, "app1", uid=1000, config=ARCKFS_PLUS)
    from repro.errors import PermissionDenied

    dir3_ino = owner.stat("/dir1/dir3").ino
    owner.release_all()
    with pytest.raises(PermissionDenied):
        kernel.acquire(attacker.app_id, dir3_ino, write=True)
    # Read access is fine (mode 755).
    kernel.acquire(attacker.app_id, dir3_ino, write=False)
