"""A transaction whose apply fails leaves every name as the commit found it.

Each seed is a program: acknowledged writes and truncates over a few
files (a ``release_all`` halfway, so some were written since the session
acquired them), then one transaction over those files and names it makes
itself (files, directories, renames of the files), then the calls another
caller makes between staging and commit: it makes a name the transaction
staged, makes a rename the transaction staged, or writes a file that
exists before the commit.  The ``tx.apply_op`` failpoint fires before a
random record.  After ``TxAborted`` every name must read as a shadow model
of the state before the commit, keep the inode it had then (a name the
transaction skipped because another call made it included), no name only
the transaction made may be left, and fsck must be clean — in process and
through ``ServerClient`` alike.
"""

import random

import pytest

from repro import errors
from repro.api import Volume, VolumeConfig
from repro.concurrency.failpoints import failpoints
from repro.server import ServerClient, protocol
from tests.integration.test_server import run, serving

LOCAL_SEEDS = range(40)
WIRE_SEEDS = range(12)
FILES = 3


def _write(model, path, data, offset):
    old = model.get(path, b"")
    old += bytes(max(0, offset - len(old)))
    model[path] = old[:offset] + data + old[offset + len(data):]


def _truncate(model, path, size):
    old = model[path]
    model[path] = old[:size] + bytes(max(0, size - len(old)))


def _data(rng):
    return bytes([rng.randrange(1, 256)]) * rng.randrange(1, 6000)


def program(seed, root):
    """``(pre, staged, between, fail)``: acknowledged calls, the
    transaction's ops, the calls made between staging and commit, and where
    in its records the apply fails (a fraction of their count)."""
    rng = random.Random(seed)
    files = [f"{root}/f{i}" for i in range(FILES)]
    pre = [("write", path, _data(rng), 0) for path in files]
    for _ in range(rng.randrange(2, 8)):
        path = rng.choice(files)
        if rng.random() < 0.7:
            pre.append(("write", path, _data(rng), rng.randrange(0, 10000)))
        else:
            pre.append(("truncate", path, rng.randrange(0, 12000)))
    # ``named``: the transaction's names for the files; ``live``: what the
    # other caller sees (the files, moved by its own renames).
    staged, made, between = [], [], []
    named, live = list(files), list(files)
    for j in range(rng.randrange(2, 7)):
        kind = rng.choice(["pwrite", "pwrite", "truncate", "create",
                           "write_file", "mkdir", "rename"])
        clash = rng.random() < 0.5
        if kind in ("create", "mkdir") or (kind == "write_file"
                                           and rng.random() < 0.5):
            path = f"{root}/n{j}"
            staged.append((kind, path, _data(rng)) if kind == "write_file"
                          else (kind, path))
            if kind != "mkdir":
                made.append(path)
            if clash:  # another call makes the name first
                between.append(("mkdir", path) if kind == "mkdir"
                               else ("write_file", path, _data(rng)))
                if kind != "mkdir":
                    live.append(path)
            continue
        if kind == "rename":
            i = rng.randrange(FILES)
            old, new = named[i], f"{root}/r{j}"
            staged.append(("rename", old, new))
            named[i] = new
            if clash and old in live:  # another call makes the same move
                between.append(("rename", old, new))
                live[live.index(old)] = new
            continue
        path = rng.choice(named + made)
        if kind == "pwrite":
            staged.append(("pwrite", path, _data(rng), rng.randrange(0, 14000)))
        elif kind == "truncate":
            staged.append(("truncate", path, rng.randrange(0, 14000)))
        else:
            staged.append(("write_file", path, _data(rng)))
    for _ in range(rng.randrange(0, 3)):  # writes to files the commit finds
        between.append(("write", rng.choice(live), _data(rng),
                        rng.randrange(0, 10000)))
    return pre, staged, between, rng.random()


def model_of(calls):
    """Path -> contents (None: a directory) after ``calls``."""
    model = {}
    for op in calls:
        if op[0] == "write":
            _write(model, op[1], op[2], op[3])
        elif op[0] == "write_file":
            _write(model, op[1], op[2], 0)
        elif op[0] == "truncate":
            _truncate(model, op[1], op[2])
        elif op[0] == "mkdir":
            model[op[1]] = None
        else:
            model[op[2]] = model.pop(op[1])
    return model


def _failing_at(index):
    def hook(ctx):
        if ctx[1] == index:
            raise errors.NoSpace("injected at apply")
    return hook


def _call(s, op):
    """Run one acknowledged call in process."""
    if op[0] == "write":
        fd = s.open(op[1], create=True)
        s.pwrite(fd, op[2], op[3])
        s.close(fd)
    elif op[0] == "truncate":
        s.truncate(op[1], op[2])
    else:
        getattr(s, op[0])(*op[1:])


def _identities(stat, model):
    return {path: (st.ino, st.gen) for path, st in
            ((path, stat(path)) for path in model)}


@pytest.mark.parametrize("seed", LOCAL_SEEDS)
def test_in_process_abort_restores_the_pre_commit_state(seed):
    pre, staged, between, fail = program(seed, "")
    with Volume.create(8 << 20, VolumeConfig(inode_count=64)) as vol, \
            vol.session("app") as s:
        for i, op in enumerate(pre):
            if i == len(pre) // 2:
                s.release_all()
            _call(s, op)
        tx = s.transaction()
        for op in staged:
            getattr(tx, op[0])(*op[1:])
        for op in between:
            _call(s, op)
        model = model_of(pre + between)
        found = _identities(s.stat, model)
        failpoints.install("tx.apply_op", _failing_at(int(fail * len(tx.ops))))
        try:
            with pytest.raises(errors.TxAborted):
                tx.commit()
        finally:
            failpoints.remove("tx.apply_op")
        assert sorted(s.readdir("/")) == sorted(p[1:] for p in model)
        assert _identities(s.stat, model) == found
        for path, data in model.items():
            if data is not None:
                assert s.stat(path).size == len(data)
                assert s.read_file(path) == data
    assert vol.fsck().clean


def test_wire_abort_restores_the_pre_commit_state():
    async def call(cli, tok, op):
        if op[0] == "write":
            fd = (await cli.call("open", session=tok, path=op[1],
                                 create=True))["fd"]
            await cli.call("pwrite", session=tok, fd=fd, offset=op[3],
                           data=protocol.pack_bytes(op[2]))
            await cli.call("close", session=tok, fd=fd)
        elif op[0] == "truncate":
            await cli.call("truncate", session=tok, path=op[1], size=op[2])
        elif op[0] == "write_file":
            await cli.call("write_file", session=tok, path=op[1],
                           data=protocol.pack_bytes(op[2]))
        elif op[0] == "mkdir":
            await cli.call("mkdir", session=tok, path=op[1])
        else:
            await cli.call("rename", session=tok, old=op[1], new=op[2])

    async def identities(cli, tok, model):
        return {path: (st["ino"], st["gen"]) for path, st in [
            (path, await cli.call("stat", session=tok, path=path))
            for path in model]}

    async def one(cli, tok, seed):
        root = f"/s{seed}"
        pre, staged, between, fail = program(seed, root)
        await cli.call("mkdir", session=tok, path=root)
        for op in pre:
            await call(cli, tok, op)
        await cli.call("tx_begin", session=tok)
        for op in staged:
            params = {"op": op[0], "path": op[1]}
            if op[0] == "pwrite":
                params.update(data=protocol.pack_bytes(op[2]), offset=op[3])
            elif op[0] == "truncate":
                params["size"] = op[2]
            elif op[0] == "write_file":
                params["data"] = protocol.pack_bytes(op[2])
            elif op[0] == "rename":
                params = {"op": "rename", "old": op[1], "new": op[2]}
            nops = (await cli.call("tx_op", session=tok, **params))["ops"]
        for op in between:
            await call(cli, tok, op)
        model = model_of(pre + between)
        found = await identities(cli, tok, model)
        failpoints.install("tx.apply_op", _failing_at(int(fail * nops)))
        try:
            with pytest.raises(errors.TxAborted):
                await cli.call("tx_commit", session=tok)
        finally:
            failpoints.remove("tx.apply_op")
        names = (await cli.call("readdir", session=tok, path=root))["names"]
        assert sorted(names) == sorted(p[len(root) + 1:] for p in model)
        assert await identities(cli, tok, model) == found
        for path, data in model.items():
            if data is not None:
                assert await cli.read_file(tok, path) == data

    async def main():
        async with serving() as (server, volumes):
            async with await ServerClient.connect("127.0.0.1", server.port) as cli:
                tok = await cli.open_session("acme")
                for seed in WIRE_SEEDS:
                    await one(cli, tok, seed)
            await server.drain()
            assert volumes["acme"].fsck().clean
    run(main())
