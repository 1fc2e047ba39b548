"""Two sessions, one volume, one model.

Every answer either session gets — a read, a listing, a refusal — must be
the answer the single shared path→bytes model gives, whichever of the two
wrote last and however the writes and ``release_all`` calls interleave:
auxiliary state a session kept across somebody else's write may not
answer.  An inode the other session still holds surfaces as
``TryAgain(owner=...)``, answered the way the server's recall answers it
(``VolumeServer._run_op``): the named holder releases, the op runs again.

Paths are up to three components deep and whole directories move and go,
so a walk one session remembers (``LibFS._resolve``, which reaches the
file itself) meets the other session's rename or removal of a directory
*above* the one it ends at, or of the file it names: the old name must
then be ``NoEntry`` — never the bytes still reachable through the
remembered chain — and the new name must answer.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import Volume, VolumeConfig
from repro.errors import FSError, TryAgain
from tests.property.test_fs_model import NAMES, Model

MADE = ["/d0", "/d1"]              # exist from the start
DIRS = MADE + ["/d0/sub", "/d1/sub"]  # the other two only once somebody mkdirs

path_st = st.builds("{}/{}".format, st.sampled_from(DIRS), st.sampled_from(NAMES))
op_st = st.one_of(
    st.tuples(st.just("create"), path_st, st.binary(max_size=200)),
    st.tuples(st.just("write"), path_st, st.binary(min_size=1, max_size=300),
              st.integers(0, 5000)),
    st.tuples(st.just("unlink"), path_st),
    st.tuples(st.just("rename"), path_st, path_st).filter(lambda op: op[1] != op[2]),
    st.tuples(st.just("rename"), st.just(DIRS[2]), st.just(DIRS[3])),
    st.tuples(st.just("rename"), st.just(DIRS[3]), st.just(DIRS[2])),
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS[2:])),
    st.tuples(st.just("rmdir"), st.sampled_from(DIRS[2:])),
    st.tuples(st.just("read"), path_st),
    st.tuples(st.just("readdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("release_all")),
)


def create(fs, path, data):
    fd = fs.creat(path)
    fs.pwrite(fd, data, 0)
    fs.close(fd)


def write(fs, path, data, off):
    fd = fs.open(path)
    try:
        fs.pwrite(fd, data, off)
    finally:
        fs.close(fd)


def rmdir(fs, path):
    # The kernel learns that a directory it has verified with children is
    # empty when it next verifies *it* (Trio's I3 check reads the shadow
    # tree), so one emptied since is handed back before it is removed.
    fs.release_all()
    fs.rmdir(path)


#: op kind -> how a session performs it (the model's method has the same name).
DO = {
    "create": create,
    "write": write,
    "unlink": lambda fs, path: fs.unlink(path),
    "rename": lambda fs, old, new: fs.rename(old, new),
    "mkdir": lambda fs, path: fs.mkdir(path),
    "rmdir": rmdir,
    "read": lambda fs, path: fs.read_file(path),
    "readdir": lambda fs, path: fs.readdir(path),
}


def apply(sessions, who, model, op):
    """Run ``op`` as session ``who`` and hold the outcome to the model:
    a value for a read, ``None`` for a change, ``FSError`` for a refusal."""
    fs, other = sessions[who], sessions[1 - who]
    kind, args = op[0], op[1:]
    if kind == "release_all":
        fs.release_all()
        return
    if kind == "read":
        expected = model.files.get(args[0], FSError)
    elif kind == "readdir":
        expected = model.listing(args[0]) if args[0] in model.dirs else FSError
    else:
        expected = None if getattr(model, kind)(*args) else FSError
    try:
        try:
            got = DO[kind](fs, *args)
        except TryAgain as busy:
            assert busy.owner == other.fs.app_id, busy
            other.release_all()            # the recall ...
            got = DO[kind](fs, *args)      # ... and the one re-run
    except TryAgain:
        raise  # a recall clears every conflict: two sessions, no third party
    except FSError:
        got = FSError
    assert got == expected, (who, op)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(steps=st.lists(st.tuples(st.integers(0, 1), op_st), max_size=24))
@example(steps=[  # B remembers /d0/sub, A moves it: B's old name is NoEntry
    (0, ("mkdir", "/d0/sub")), (0, ("create", "/d0/sub/a", b"moved with it")),
    (0, ("release_all",)), (1, ("read", "/d0/sub/a")), (1, ("release_all",)),
    (0, ("rename", "/d0/sub", "/d1/sub")), (0, ("release_all",)),
    (1, ("readdir", "/d0")), (1, ("read", "/d0/sub/a")),
    (1, ("read", "/d1/sub/a"))])
@example(steps=[  # ... A removes it and makes another: B reads the new bytes
    (0, ("mkdir", "/d0/sub")), (0, ("create", "/d0/sub/a", b"old")),
    (0, ("release_all",)), (1, ("read", "/d0/sub/a")),
    (0, ("unlink", "/d0/sub/a")), (0, ("rmdir", "/d0/sub")),
    (1, ("read", "/d0/sub/a")), (0, ("mkdir", "/d0/sub")),
    (0, ("create", "/d0/sub/a", b"new")), (1, ("read", "/d0/sub/a"))])
@example(steps=[  # B remembers the file itself; A unlinks and re-creates it
    (0, ("create", "/d0/a", b"first")), (0, ("release_all",)),
    (1, ("read", "/d0/a")), (1, ("release_all",)),
    (0, ("unlink", "/d0/a")), (0, ("create", "/d0/a", b"second")),
    (0, ("release_all",)), (1, ("read", "/d0/a"))])
def test_two_sessions_agree_with_one_model(steps):
    vol = Volume.create(16 << 20, VolumeConfig(inode_count=128))
    sessions = [vol.session("a", uid=0), vol.session("b", uid=0)]
    for d in MADE:
        sessions[0].mkdir(d)
    sessions[0].release_all()
    model = Model(dirs=["", *MADE])
    for who, op in steps:
        apply(sessions, who, model, op)
    # Both see all of it, in either order ...
    for who in (1, 0):
        for path in sorted(model.files):
            apply(sessions, who, model, ("read", path))
        for d in DIRS:
            apply(sessions, who, model, ("readdir", d))
    # ... and what they leave behind verifies and checks clean.
    for sess in sessions:
        sess.release_all()
    assert not vol.kernel.acquisitions
    assert vol.kernel.audit_tree() == []
    assert vol.fsck().clean
