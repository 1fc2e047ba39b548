"""Crash-consistency properties under ArckFS+.

For a random prefix of operations and a crash injected inside the (k+1)-th
creation, EVERY reachable crash image must recover to either the k-op
state or the k+1-op state — the atomicity the commit-marker protocol plus
the §4.2 fence guarantee.  Under unpatched ArckFS the same scheme must
exhibit at least one torn state for *some* sequence (the bug is real), but
never lose a completed operation.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency.failpoints import failpoints
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.errors import CrashPoint
from repro.fsck.findings import F_CHAIN_CORRUPT, TORN_CLASSES
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.crash import explore
from tests.conftest import build_fs

names_st = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=40),
    min_size=1, max_size=6, unique=True,
)


def crash_during_create(config, names, crash_index):
    device, _kernel, fs = build_fs(config)

    def boom(_ctx):
        raise CrashPoint("injected")

    created = []
    for i, name in enumerate(names):
        if i == crash_index:
            failpoints.install("create.post_marker", boom)
            try:
                fs.creat(f"/{name}")
                created.append(name)  # fence raced ahead: op completed
            except CrashPoint:
                pass
            finally:
                failpoints.remove("create.post_marker")
            break
        fs.close(fs.creat(f"/{name}"))
        created.append(name)
    return device, created, names[crash_index] if crash_index < len(names) else None


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(names=names_st, data=st.data())
def test_arckfs_plus_creates_are_atomic_under_crash(names, data):
    crash_index = data.draw(st.integers(0, len(names) - 1))
    device, created, pending = crash_during_create(ARCKFS_PLUS, names, crash_index)
    allowed = {tuple(sorted(created)), tuple(sorted(created + [pending]))}

    def judge(rebooted, _point):
        kernel = KernelController.mount(rebooted)
        assert not (TORN_CLASSES | {F_CHAIN_CORRUPT}) & set(kernel.last_recovery.classes())
        listing = LibFS(kernel, "r", uid=0).readdir("/")
        assert tuple(listing) in allowed
        # completed ops are in EVERY image (durability of returned ops)
        assert set(created) <= set(listing)
    explore(device, None, judge, budget=8192)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(names=names_st, data=st.data())
def test_arckfs_never_loses_completed_ops_even_when_torn(names, data):
    """Even the buggy variant only corrupts the *in-flight* creation —
    completed operations are always durable (they ended with a fence)."""
    crash_index = data.draw(st.integers(0, len(names) - 1))
    device, created, _pending = crash_during_create(ARCKFS, names, crash_index)

    def judge(rebooted, _point):
        kernel = KernelController.mount(rebooted)
        assert set(created) <= set(LibFS(kernel, "r", uid=0).readdir("/"))
    explore(device, None, judge, budget=8192)
