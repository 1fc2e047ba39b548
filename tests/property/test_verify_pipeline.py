"""The verifier's worker count is accounting only.

``Verifier(kernel, workers=N)`` deals each check batch into ``N`` modeled
stride shards for its critical-path counters, then checks the batch once,
in order, on the calling thread.  So ``N`` must change nothing a
verification decides or stages — checked over trees mutated since their
last verification, so every staging list is non-empty — and the first
``VerifyFailure`` must be the first failing item in batch order, whatever
``N`` is.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fsck.volume import build_volume
from repro.kernel.verifier import Verifier, VerifyFailure


def _outcome(verifier, ino, app_id=None, trusted=False):
    """(ok, payload): the staged update on success, the failure's message
    on rejection."""
    try:
        return True, verifier.verify(ino, app_id, trusted=trusted)
    except VerifyFailure as vf:
        return False, str(vf)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    files=st.integers(min_value=2, max_value=10),
    dirs=st.integers(min_value=1, max_value=3),
    payload_pages=st.integers(min_value=0, max_value=2),
    workers=st.sampled_from([2, 4, 8]),
)
def test_sharded_matches_one_shard_on_a_mutated_tree(files, dirs,
                                                     payload_pages, workers):
    """``workers`` changes only the accounting: identical verdicts and
    staged updates, and a critical path shorter than the work.  A released
    tree only ever takes ``_check_dentry``'s "unchanged entry" return;
    mutate it *without* releasing so every staging list, the absent-child
    pass and the trusting mode are compared too."""
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

    one_shard = Verifier(kernel)
    sharded = Verifier(kernel, workers=workers)
    for trusted in (False, True):
        for app_id in (fs.app_id, None):
            staged_lists = set()
            for ino in sorted(set(kernel.shadow) | set(kernel.pending)):
                s_ok, s_val = _outcome(one_shard, ino, app_id, trusted)
                p_ok, p_val = _outcome(sharded, ino, app_id, trusted)
                where = f"ino {ino} (trusted={trusted}, app_id={app_id!r})"
                assert s_ok == p_ok, f"{where}: verdicts diverge"
                assert s_val == p_val, f"{where}: staged updates diverge"
                if s_ok:
                    staged_lists.update(
                        k for k in ("created", "reparented", "deleted", "detached")
                        if getattr(s_val, k))
            assert staged_lists == {"created", "reparented", "deleted", "detached"}
    assert sharded.pstats.critical_units < sharded.pstats.total_units


def test_first_verify_failure_is_the_lowest_page():
    """Two of a file's pages given to another inode: every worker count
    names the lower one, every time.  (The pages sit in different stride
    shards, so this held only by scheduling luck while shards ran on
    threads.)"""
    _device, kernel, fs = build_volume(files=1, dirs=0,
                                       payload=b"\xc3" * 8 * 4096)
    fs.release_all()
    root = kernel.shadow[min(kernel.shadow)]
    ino = root.children[b"f0.dat"]
    owned = sorted(p for p, o in kernel.page_owner.items() if o == ino)
    bad = owned[1:3]
    for page in bad:
        kernel.set_page_owner(page, root.ino)
    for workers in (1, 8):
        verifier = Verifier(kernel, workers=workers)
        for _ in range(20):
            try:
                verifier.verify(ino, None)
            except VerifyFailure as vf:
                assert f"page {bad[0]} " in str(vf), (workers, str(vf))
            else:
                raise AssertionError("corrupted pages verified")
