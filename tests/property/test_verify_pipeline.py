"""The verifier's stages over mutated trees, and its first failure.

A released tree only ever takes ``_check_dentry``'s "unchanged entry"
return; mutating it *without* releasing makes every staging list
non-empty, so the creation, rename and deletion paths, the absent-child
pass and the trusting mode all run.  The first ``VerifyFailure`` is the
first failing item in batch order, every time.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fsck.volume import build_volume
from repro.kernel.verifier import Verifier, VerifyFailure


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    files=st.integers(min_value=2, max_value=10),
    dirs=st.integers(min_value=1, max_value=3),
    payload_pages=st.integers(min_value=0, max_value=2),
)
def test_mutated_tree_exercises_every_staging_list(files, dirs, payload_pages):
    """Trusted and untrusted, with and without an app: every staging list
    is filled, and each check batch is counted once in the histogram."""
    payload = b"\xc3" * (payload_pages * 4096 + 17)
    device, kernel, fs = build_volume(
        files=files, dirs=dirs, payload=payload,
        size=16 * 1024 * 1024, inode_count=128,
    )
    fs.mkdir("/empty")
    for name in ("gone", "inplace", "across"):
        fs.write_file(f"/d0/{name}", payload)
    fs.release_all()

    fs.write_file("/d0/new0", payload)          # created (d0)
    fs.close(fs.creat("/new1"))                 # created (root)
    fs.unlink("/d0/gone")                       # deleted (d0)
    fs.unlink("/f0.dat")                        # deleted (root)
    fs.rename("/d0/inplace", "/d0/inplace2")    # reparented, same directory
    fs.rename("/d0/across", "/across")          # reparented (root), detached (d0)
    fs.rmdir("/empty")                          # deleted (root)

    verifier = Verifier(kernel)
    for trusted in (False, True):
        for app_id in (fs.app_id, None):
            staged_lists = set()
            for ino in sorted(set(kernel.shadow) | set(kernel.pending)):
                try:
                    staged = verifier.verify(ino, app_id, trusted=trusted)
                except VerifyFailure:
                    continue
                staged_lists.update(
                    k for k in ("created", "reparented", "deleted", "detached")
                    if getattr(staged, k))
            assert staged_lists == {"created", "reparented", "deleted", "detached"}
    pstats = verifier.pstats
    units = pstats.page_checks + pstats.dentry_checks + pstats.absent_checks
    assert sum(n * k for n, k in pstats.batch_sizes.items()) == units > 0


def test_first_verify_failure_is_the_lowest_page():
    """Two of a file's pages given to another inode: verification names
    the lower one, every time."""
    _device, kernel, fs = build_volume(files=1, dirs=0,
                                       payload=b"\xc3" * 8 * 4096)
    fs.release_all()
    root = kernel.shadow[min(kernel.shadow)]
    ino = root.children[b"f0.dat"]
    owned = sorted(p for p, o in kernel.page_owner.items() if o == ino)
    bad = owned[1:3]
    for page in bad:
        kernel.set_page_owner(page, root.ino)
    verifier = Verifier(kernel)
    for _ in range(20):
        try:
            verifier.verify(ino, None)
        except VerifyFailure as vf:
            assert f"page {bad[0]} " in str(vf), str(vf)
        else:
            raise AssertionError("corrupted pages verified")
