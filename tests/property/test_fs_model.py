"""Model-based testing: random operation sequences on ArckFS+ must agree
with an in-memory reference model, and survive release/re-acquire cycles
and remount."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ARCKFS_PLUS
from repro.errors import FSError
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice
from tests.conftest import lost

DIRS = ["/d0", "/d1", "/d0/sub"]
NAMES = ["a", "b", "c"]

op_st = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(DIRS), st.sampled_from(NAMES),
              st.binary(max_size=200)),
    st.tuples(st.just("unlink"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("write"), st.sampled_from(DIRS), st.sampled_from(NAMES),
              st.binary(max_size=300), st.integers(0, 5000)),
    st.tuples(st.just("rename"), st.sampled_from(DIRS), st.sampled_from(NAMES),
              st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("release_all")),
)


def fresh():
    device = PMDevice(32 * 1024 * 1024)
    kernel = KernelController.fresh(device, inode_count=256, config=ARCKFS_PLUS)
    fs = LibFS(kernel, "model", uid=0, config=ARCKFS_PLUS)
    for d in DIRS:
        fs.makedirs(d)
    return device, kernel, fs


class Model:
    """Reference: path -> bytes content, and which directories exist."""

    def __init__(self, dirs=DIRS):
        self.files = {}
        self.dirs = set(dirs)

    def _creatable(self, path):
        return (path not in self.files and path not in self.dirs
                and path.rsplit("/", 1)[0] in self.dirs)

    def create(self, path, data):
        if not self._creatable(path):
            return False
        self.files[path] = data
        return True

    def mkdir(self, path):
        if not self._creatable(path):
            return False
        self.dirs.add(path)
        return True

    def listing(self, d):
        """What ``readdir(d)`` must return."""
        return sorted(p.rsplit("/", 1)[1] for p in [*self.files, *self.dirs]
                      if p.rsplit("/", 1)[0] == d)

    def unlink(self, path):
        return self.files.pop(path, None) is not None

    def write(self, path, data, off):
        if path not in self.files:
            return False
        cur = bytearray(self.files[path])
        if len(cur) < off + len(data):
            cur.extend(b"\0" * (off + len(data) - len(cur)))
        cur[off : off + len(data)] = data
        self.files[path] = bytes(cur)
        return True

    def rename(self, old, new):
        if not self._creatable(new):
            return False
        if old in self.files:
            self.files[new] = self.files.pop(old)
            return True
        if old not in self.dirs or new.startswith(old + "/"):
            return False
        self.dirs = {self._moved(p, old, new) for p in self.dirs}
        self.files = {self._moved(p, old, new): data
                      for p, data in self.files.items()}
        return True

    @staticmethod
    def _moved(path, old, new):
        """``path`` after directory ``old`` became ``new``."""
        inside = path == old or path.startswith(old + "/")
        return new + path[len(old):] if inside else path

    def rmdir(self, path):
        if path not in self.dirs or self.listing(path):
            return False
        self.dirs.remove(path)
        return True


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ops=st.lists(op_st, max_size=30))
def test_random_ops_match_reference_model(ops):
    device, kernel, fs = fresh()
    model = Model()
    for op in ops:
        kind = op[0]
        try:
            if kind == "create":
                _, d, n, data = op
                path = f"{d}/{n}"
                ok = model.create(path, data)
                if ok:
                    fd = fs.creat(path)
                    fs.pwrite(fd, data, 0)
                    fs.close(fd)
                else:
                    try:
                        fs.creat(path)
                        raise AssertionError("create should have failed")
                    except FSError:
                        pass
            elif kind == "unlink":
                _, d, n = op
                path = f"{d}/{n}"
                ok = model.unlink(path)
                if ok:
                    fs.unlink(path)
                else:
                    try:
                        fs.unlink(path)
                        raise AssertionError("unlink should have failed")
                    except FSError:
                        pass
            elif kind == "write":
                _, d, n, data, off = op
                path = f"{d}/{n}"
                if model.write(path, data, off):
                    fd = fs.open(path)
                    fs.pwrite(fd, data, off)
                    fs.close(fd)
            elif kind == "rename":
                _, d1, n1, d2, n2 = op
                old, new = f"{d1}/{n1}", f"{d2}/{n2}"
                if model.rename(old, new):
                    fs.rename(old, new)
            elif kind == "release_all":
                fs.release_all()
        except FSError as exc:  # pragma: no cover - any mismatch fails below
            raise AssertionError(f"unexpected FS error for {op}: {exc}") from exc

    # Full agreement with the model...
    for path, data in model.files.items():
        assert fs.read_file(path) == data, path
    for d in DIRS:
        assert fs.readdir(d) == model.listing(d)

    # ...including after a full release + verification of everything...
    fs.release_all()
    assert kernel.audit_tree() == []

    # ...and after a remount from the durable image.
    device.drain()
    kernel2 = KernelController.mount(PMDevice.from_image(device.durable_image()))
    assert not lost(kernel2.last_recovery)
    fs2 = LibFS(kernel2, "model2", uid=0)
    for path, data in model.files.items():
        assert fs2.read_file(path) == data, path
