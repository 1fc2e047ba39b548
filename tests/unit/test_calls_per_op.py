"""Calls per op: the interpreter's work on the hot paths, as a count.

A wall-clock gain here needs ten alternating pairs of runs to show, but
what those gains removed is mostly Python frames, and a frame count is
exact from run to run.  ``sys.setprofile`` sees one ``call`` event per
Python frame an op enters (a generator resumed counts again); C functions
are ``c_call`` events and are not counted.  The volume is warm: every
inode the ops touch is attached and every walk remembered, as in a
session's steady state.

The same requests also run through the server's op table, as a frame's
params, so the wire handlers' own frames are counted too.

Each ceiling is the count this file last measured (a mean over the
repetitions, rounded up: a directory's log extends every so many
appends).  A change that adds a step fails here; one that removes steps
lowers the ceiling in the same change and says so in CHANGES.md (ROADMAP
item 21).  The same ops on a crash-tracked volume — the crash tester's
configuration — have ceilings of their own: there every store logs what
it overwrites.
"""

import sys

import pytest

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.server.dispatch import SESSION_OPS

#: timed repetitions per op, after as many untimed ones to warm up.
REPS = 50

#: Python calls per op, the probe's own lambda included.  ``rename_pair``
#: moves ``/d1/f`` to ``/d2/r`` and back; ``mkdir_rmdir`` makes and removes
#: ``/d1/m``.  Before the directory operations hashed each name once and
#: tested a disarmed failpoint inline: 189 for ``creat_close_unlink``, 205
#: for ``rename_pair``, 191.54 for ``mkdir_rmdir``, 9 for ``stat``, and
#: (tracked) 193, 213 and 195.52.
CEILINGS = {
    "pwrite_4k": 19,
    "pread_4k": 16,
    "stat": 8,
    "creat_close_unlink": 143,
    "rename_pair": 130,
    "mkdir_rmdir": 144,
    "tx3": 137,
    # The same requests through the server's op table, params as a frame
    # carries them (``SESSION_OPS[method](session, params)``).  Before the
    # table, with a hand-written adapter per method: 28, 26, 12, 24, 200
    # and 193; before the one hash per name, stat 11 and creat + close +
    # unlink 197.
    "dispatch_pwrite_4k": 25,
    "dispatch_pread_4k": 21,
    "dispatch_stat": 10,
    "dispatch_read_file_16k": 23,
    "dispatch_creat_close_unlink": 150,
    "dispatch_tx3": 184,
}
#: The same, crash-tracked.
TRACKED_CEILINGS = {
    "pwrite_4k": 19,
    "creat_close_unlink": 147,
    "rename_pair": 138,
    "mkdir_rmdir": 148,
    "tx3": 137,
}


def python_calls(op) -> float:
    """Mean Python frames entered per call of ``op``, warm."""
    for _ in range(REPS):
        op()
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(REPS):
            op()
    finally:
        sys.setprofile(previous)
    return calls / REPS


def populated(config):
    """Three 16 KiB files one directory down, as the e2e workloads lay
    them out, on a 64 MiB volume."""
    with Volume.create(64 << 20, config) as vol, vol.session("calls", uid=0) as s:
        for i in range(3):
            s.mkdir(f"/d{i}")
            s.write_file(f"/d{i}/f", b"a" * 16384)
        yield s


@pytest.fixture(scope="module")
def session():
    """With the default configuration."""
    yield from populated(VolumeConfig())


@pytest.fixture(scope="module")
def tracked_session():
    yield from populated(VolumeConfig(crash_tracking=True))


def ops(s):
    fd = s.open("/d0/f")
    page = b"x" * 4096

    def tx3():
        tx = s.transaction()
        for i in range(3):
            tx.pwrite(f"/d{i}/f", page, 4096)
        tx.commit()

    def rename_pair():
        s.rename("/d1/f", "/d2/r")
        s.rename("/d2/r", "/d1/f")

    def mkdir_rmdir():
        s.mkdir("/d1/m")
        s.rmdir("/d1/m")

    def dispatch_creat_close_unlink():
        fd = call["creat"](s, {"path": "/d1/t"})["fd"]
        call["close"](s, {"fd": fd})
        call["unlink"](s, {"path": "/d1/t"})

    def dispatch_tx3():
        call["tx_begin"](s, {})
        for i in range(3):
            call["tx_op"](s, {"op": "pwrite", "path": f"/d{i}/f",
                              "data": page, "offset": 4096})
        call["tx_commit"](s, {})

    call = SESSION_OPS
    return {
        "pwrite_4k": lambda: s.pwrite(fd, page, 4096),
        "pread_4k": lambda: s.pread(fd, 4096, 4096),
        "stat": lambda: s.stat("/d1/f"),
        "creat_close_unlink": lambda: (s.close(s.creat("/d1/t")),
                                       s.unlink("/d1/t")),
        "rename_pair": rename_pair,
        "mkdir_rmdir": mkdir_rmdir,
        "tx3": tx3,
        "dispatch_pwrite_4k": lambda: call["pwrite"](
            s, {"fd": fd, "data": page, "offset": 4096}),
        "dispatch_pread_4k": lambda: call["pread"](
            s, {"fd": fd, "n": 4096, "offset": 4096}),
        "dispatch_stat": lambda: call["stat"](s, {"path": "/d1/f"}),
        "dispatch_read_file_16k": lambda: call["read_file"](
            s, {"path": "/d2/f"}),
        "dispatch_creat_close_unlink": dispatch_creat_close_unlink,
        "dispatch_tx3": dispatch_tx3,
    }


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_calls_per_op_stay_under_their_ceiling(session, name):
    assert not obs.enabled and not failpoints.hooks  # the production path
    calls = python_calls(ops(session)[name])
    assert calls <= CEILINGS[name], f"{name}: {calls} Python calls per op"


@pytest.mark.parametrize("name", sorted(TRACKED_CEILINGS))
def test_tracked_calls_per_op_stay_under_their_ceiling(tracked_session, name):
    assert not obs.enabled and not failpoints.hooks
    calls = python_calls(ops(tracked_session)[name])
    assert calls <= TRACKED_CEILINGS[name], f"{name}: {calls} Python calls per op"
