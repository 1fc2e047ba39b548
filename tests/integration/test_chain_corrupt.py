"""A corrupt page chain reaches applications as a typed error.

Before ``CoreState.walk_chain`` each chain reader raised a bare
``ValueError`` on a bad link, and that is what ``session.readdir`` and the
wire handed to applications.  The walker raises :class:`ChainCorrupt`
(a :class:`ReproError` with a stable code, still a ``ValueError``), so the
same corruption is typed in-process, over the wire and at the CLI, while
mount-time recovery and ``fsck --repair`` keep working on it.
"""

import asyncio

import pytest

from repro import errors
from repro.api import Volume, VolumeConfig
from repro.cli import main
from repro.core.invariants import walk
from repro.core.mkfs import ROOT_INO
from repro.fsck.findings import F_CHAIN_CORRUPT, F_DIR_CYCLE, F_ORPHAN_INODE
from repro.fsck.inject import inject_chain_corrupt
from repro.pm.layout import PAGE_SIZE
from repro.server import ServerClient, ServerConfig, VolumeServer

pytestmark = pytest.mark.timeout(60)


def corrupt_volume() -> Volume:
    """A volume whose root directory log links past the end of the device."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=128))
    with vol.session("writer") as s:
        for i in range(16):
            s.write_file(f"/f{i}", b"payload")
    inject_chain_corrupt(vol.device)
    return vol


def test_readdir_raises_typed_error_in_process():
    vol = corrupt_volume()
    with pytest.raises(errors.ChainCorrupt) as info:
        vol.session("reader").readdir("/")
    exc = info.value
    assert isinstance(exc, errors.ReproError)
    assert exc.code == errors.ChainCorrupt.CODE
    assert exc.bad == vol.kernel.geom.page_count + 5 and exc.last_good
    assert errors.exit_code_for(exc) == errors.EXIT_CORRUPTION


def test_readdir_raises_typed_error_over_the_wire():
    async def scenario():
        vol = corrupt_volume()
        try:
            async with VolumeServer({"acme": vol}, ServerConfig()) as server:
                async with await ServerClient.connect(
                        "127.0.0.1", server.port) as cli:
                    token = await cli.open_session("acme")
                    with pytest.raises(errors.ChainCorrupt) as info:
                        await cli.call("readdir", session=token, path="/")
                    assert info.value.code == errors.ChainCorrupt.CODE
                    assert info.value.remote
                    assert "page chain corrupt" in str(info.value)
        finally:
            vol.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_mount_survives_and_reports_the_torn_chain():
    vol = corrupt_volume()
    remounted = Volume.mount(vol.device.durable_image())
    # the root's log was unreadable
    assert [(f.ino, f.meta["kind"]) for f in remounted.recovery.by_class(F_CHAIN_CORRUPT)] \
        == [(ROOT_INO, "tail")]
    chain = [f for f in vol.fsck().findings if f.cls == F_CHAIN_CORRUPT]
    assert [f.page for f in chain] == [vol.kernel.geom.page_count + 5]


def test_mount_keeps_what_a_corrupt_root_log_still_links():
    """Mount used to skip a directory whose log it could not walk to the
    end: all 16 files were wiped as orphans, and the root's good log page
    was left free for the next ``alloc`` to hand out again."""
    vol = corrupt_volume()
    core = vol.kernel.core
    prefix = [p for head in core.read_inode(ROOT_INO).tails if head
              for p in walk(core, head).pages]
    mounted = Volume.mount(vol.device.durable_image())
    assert not {F_ORPHAN_INODE, F_DIR_CYCLE} & set(mounted.recovery.classes())
    with mounted.session("reader") as s:
        for i in range(16):
            assert s.read_file(f"/f{i}") == b"payload"
    assert mounted.fsck().clean  # the bad link was cut at the good prefix
    alloc = mounted.kernel.alloc
    assert prefix and all(alloc.is_allocated(p) for p in prefix)
    assert not {alloc.alloc() for _ in range(8)} & set(prefix)


def test_mount_keeps_the_good_pages_of_a_file_with_a_corrupt_slot():
    """Mount used to claim nothing for a file whose data slot 2 points out
    of range, yet kept the file: its index page and its two good data
    pages were left free while it still mapped them."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
    with vol.session("writer") as s:
        s.write_file("/f", b"x" * (3 * PAGE_SIZE))
        ino = s.stat("/f").ino
    core = vol.kernel.core
    index = core.index_pages(core.read_inode(ino))
    data = core.file_pages(core.read_inode(ino))
    core.store_index_slots(index, 2, [vol.kernel.geom.page_count + 7])
    vol.device.sfence()
    mounted = Volume.mount(vol.device.durable_image())
    assert (ino, "data") in {(f.ino, f.meta["kind"])
                             for f in mounted.recovery.by_class(F_CHAIN_CORRUPT)}
    assert all(mounted.kernel.alloc.is_allocated(p) for p in index + data[:2])


def test_cli_fsck_repair_ends_clean():
    assert main(["fsck", "--files", "8", "--dirs", "2",
                 "--inject", "chain-corrupt"]) == 1
    assert main(["fsck", "--files", "8", "--dirs", "2",
                 "--inject", "chain-corrupt", "--repair"]) == 0
