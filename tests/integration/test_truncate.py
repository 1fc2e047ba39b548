"""``truncate`` keeps the file invariant ``size <= mapped pages * 4096``.

Extending used to store the new size and allocate nothing, which is the one
thing ``Verifier._verify_file`` and fsck's ``size-mismatch`` forbid: the
next verified release rolled the file back.  Shrinking used to leave the
cut-off bytes in the kept last page, where a later extension or a write
past EOF exposed them.  Each entry point is checked: the LibFS call,
``Session.transaction()`` and the wire op.
"""

import asyncio
from dataclasses import replace

import pytest

from repro import obs
from repro.api import Volume, VolumeConfig
from repro.server import ServerClient, ServerConfig, VolumeServer
from tests.conftest import lost

pytestmark = pytest.mark.timeout(60)

HEAD = b"h" * 100
EXTENDED = HEAD + bytes(10000 - len(HEAD))


def make_volume() -> Volume:
    return Volume.create(8 << 20, VolumeConfig(inode_count=64))


def assert_extended_everywhere(vol: Volume, path: str = "/f") -> None:
    """The extension survived a verified release, reads as zeros past the
    old EOF, is fsck-clean live and after a remount of the durable image."""
    with vol.session("reader") as reader:
        assert reader.stat(path).size == len(EXTENDED)
        assert reader.read_file(path) == EXTENDED
    report = vol.fsck()
    assert report.clean, report.summary()
    remounted = Volume.mount(vol.device.durable_image())
    assert not lost(remounted.recovery)
    assert remounted.fsck().clean
    with remounted.session("reader") as reader:
        assert reader.read_file(path) == EXTENDED


def test_extend_passes_verified_release():
    vol = make_volume()
    with vol.session("app") as s:
        s.write_file("/f", HEAD)
        s.release_all()
        s.truncate("/f", len(EXTENDED))
        s.release_all()  # used to raise CorruptionDetected and roll back
        assert s.read_file("/f") == EXTENDED
    assert_extended_everywhere(vol)


def test_extend_in_a_transaction():
    vol = make_volume()
    with vol.session("app") as s:
        s.write_file("/f", HEAD)
        s.release_all()
        with s.transaction() as tx:
            tx.truncate("/f", len(EXTENDED))
        s.release_all()
    assert_extended_everywhere(vol)


def test_extend_over_the_wire():
    vol = make_volume()

    async def main():
        async with VolumeServer({"acme": vol}, ServerConfig()) as server:
            async with await ServerClient.connect(
                    "127.0.0.1", server.port) as cli:
                tok = await cli.open_session("acme")
                await cli.write_file(tok, "/f", HEAD)
                await cli.call("truncate", session=tok, path="/f",
                               size=len(EXTENDED))
                # Every wire op releases (and verifies) before it answers.
                assert await cli.read_file(tok, "/f") == EXTENDED
                await cli.close_session(tok)
            await server.drain()

    asyncio.run(asyncio.wait_for(main(), timeout=30))
    assert_extended_everywhere(vol)


def test_shrink_then_write_past_eof_reads_zeros_between():
    vol = make_volume()
    with vol.session("app") as s:
        s.write_file("/g", b"A" * 4096)
        s.truncate("/g", 100)
        fd = s.open("/g")
        s.pwrite(fd, b"B", 200)
        s.close(fd)
        assert s.read_file("/g") == b"A" * 100 + bytes(100) + b"B"
        s.release_all()
    assert vol.fsck().clean


def test_shrink_then_extend_within_the_page_reads_zeros():
    vol = make_volume()
    with vol.session("app") as s:
        s.write_file("/g", b"A" * 5000)
        s.truncate("/g", 4196)      # keeps 100 bytes of the second page
        s.truncate("/g", 4596)      # ...and grows back inside it
        assert s.read_file("/g") == b"A" * 4196 + bytes(400)
        s.release_all()
    image = vol.device.durable_image()
    with Volume.mount(image).session("reader") as reader:
        assert reader.read_file("/g") == b"A" * 4196 + bytes(400)


def test_page_aligned_shrink_zeroes_nothing():
    """The zeroing is only for a cut inside a page: the e2e ``data-session``
    truncates back to a page-aligned size and its per-op store and fence
    counts must not move."""
    vol = make_volume()
    with vol.session("app") as s:
        s.write_file("/g", b"A" * (3 * 4096))
        before = replace(vol.device.stats)
        s.truncate("/g", 2 * 4096)
        after_aligned = replace(vol.device.stats)
        aligned = obs.stats_diff(after_aligned, before)
        s.truncate("/g", 4096 + 100)
        cut = obs.stats_diff(vol.device.stats, after_aligned)
        assert aligned.ntstores == 0
        assert cut.ntstores == 1  # the tail of the kept page, zeroed
        assert s.read_file("/g") == b"A" * (4096 + 100)
