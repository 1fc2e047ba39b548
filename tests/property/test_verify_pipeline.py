"""One-shard/N-shard verifier equivalence (the batch scheduler's safety
property).

``Verifier(kernel, workers=N)`` only reschedules the per-item checks across
worker shards; it must accept exactly the volumes the one-shard
``Verifier(kernel)`` accepts, reject exactly the ones it rejects, and stage
byte-for-byte the same shadow updates.  We check this over randomized
trees, clean and with injected corruption (the same torn/dangling-dentry
fingerprints the fsck tests use), and over trees mutated since their last
verification, so the shards stage (and merge) non-empty updates.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fsck.inject import inject_dangling_dentry, inject_torn_dentry
from repro.fsck.volume import build_volume
from repro.kernel.verifier import Verifier, VerifyFailure

INJECTORS = {
    None: None,
    "torn-dentry": inject_torn_dentry,
    "dangling-dentry": inject_dangling_dentry,
}


def _normalize(s):
    """Order-insensitive view of a StagedUpdate (shards merge unordered)."""
    return {
        "ino": s.ino,
        "bytes_verified": s.bytes_verified,
        "created": sorted(s.created),
        "reparented": sorted(s.reparented),
        "deleted": sorted(s.deleted),
        "detached": sorted(s.detached),
        "new_children": s.new_children,
        "pages": set(s.pages),
        "size": s.size,
        "mark_deleted_pending": s.mark_deleted_pending,
        "drop_pending": s.drop_pending,
    }


def _outcome(verifier, ino, app_id=None, trusted=False):
    """(ok, payload): staged update on success, failing ino on rejection."""
    try:
        return True, _normalize(verifier.verify(ino, app_id, trusted=trusted))
    except VerifyFailure as vf:
        return False, vf.ino


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    files=st.integers(min_value=2, max_value=10),
    dirs=st.integers(min_value=1, max_value=3),
    payload_pages=st.integers(min_value=0, max_value=3),
    injector=st.sampled_from(sorted(INJECTORS, key=str)),
    workers=st.sampled_from([2, 4, 8]),
)
def test_pipelined_matches_serial(files, dirs, payload_pages, injector,
                                  workers):
    device, kernel, fs = build_volume(
        files=files, dirs=dirs,
        payload=b"\xc3" * (payload_pages * 4096 + 17),
        size=16 * 1024 * 1024, inode_count=128,
    )
    fs.release_all()
    if injector is not None:
        INJECTORS[injector](device)

    serial = Verifier(kernel)
    pipelined = Verifier(kernel, workers=workers)
    rejected = 0
    for ino in sorted(kernel.shadow):
        s_ok, s_val = _outcome(serial, ino)
        p_ok, p_val = _outcome(pipelined, ino)
        assert s_ok == p_ok, (
            f"ino {ino}: serial {'accepted' if s_ok else 'rejected'} but "
            f"pipelined {'accepted' if p_ok else 'rejected'}")
        assert s_val == p_val, f"ino {ino}: staged updates diverge"
        rejected += not s_ok
    # A clean volume verifies end to end.  (Injected corruption may or may
    # not trip verify() — torn dentries are skipped by log replay and left
    # for fsck — the property above only demands both engines agree.)
    if injector is None:
        assert rejected == 0
    assert pipelined.pstats.verifications == len(kernel.shadow)


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
    """A released tree only ever takes ``_check_dentry``'s "unchanged entry"
    return; mutate it *without* releasing so every staging list, the
    absent-child pass and the trusting mode are compared too."""
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
                        if s_val[k])
            assert staged_lists == {"created", "reparented", "deleted", "detached"}
    assert sharded.pstats.shard_jobs > 0
