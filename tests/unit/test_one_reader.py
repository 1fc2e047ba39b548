"""A directory is read once.

``core/invariants.py``'s reader is the only code that reads an inode's
records: the LibFS's auxiliary-state rebuild and the verifier each make
one pass over a directory's log pages, reading each page's header once
and parsing its records once.  The counts come from wrappers around the
two page primitives; the kernel's own snapshot walk (on the raw device)
is left out of the LibFS's count.
"""

from collections import Counter

import pytest

from repro.api import Volume, VolumeConfig
from repro.core.corestate import CoreState
from repro.core.mkfs import ROOT_INO


@pytest.fixture
def volume():
    """``/d``: a directory whose log runs over several pages."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=256))
    with vol.session("writer", uid=0) as s:
        s.mkdir("/d")
        for i in range(150):
            s.creat(f"/d/entry-{i:03d}-{'n' * 30}")
    return vol


def count_reads(monkeypatch, device):
    """Per page: header reads and record parses, each split by whether
    the raw device (the kernel) or a mapping (a LibFS) did it."""
    headers, parses = Counter(), Counter()
    read_header, parse = CoreState.read_page_header, CoreState.page_dentries

    def counted_header(self, page_no):
        headers[page_no, self.mem is device] += 1
        return read_header(self, page_no)

    def counted_parse(self, page_no, tail=-1):
        parses[page_no, self.mem is device] += 1
        return parse(self, page_no, tail)

    monkeypatch.setattr(CoreState, "read_page_header", counted_header)
    monkeypatch.setattr(CoreState, "page_dentries", counted_parse)
    return headers, parses


def test_a_second_sessions_first_attach_reads_each_page_once(volume, monkeypatch):
    kernel = volume.kernel
    reader = volume.session("reader", uid=0)
    d_ino = kernel.shadow[ROOT_INO].children[b"d"]
    pages = kernel.core.dir_pages(kernel.core.read_inode(d_ino))
    assert len(pages) >= 3
    headers, parses = count_reads(monkeypatch, volume.device)
    assert len(reader.readdir("/d")) == 150
    once = {page_no: 1 for page_no in pages}
    assert {p: headers[p, False] for p in pages} == once
    assert {p: parses[p, False] for p in pages} == once
    assert not any(parses[p, True] for p in pages)


def test_a_verify_reads_each_header_once(volume, monkeypatch):
    kernel = volume.kernel
    volume.session("reader", uid=0)
    d_ino = kernel.shadow[ROOT_INO].children[b"d"]
    pages = kernel.core.dir_pages(kernel.core.read_inode(d_ino))
    headers, parses = count_reads(monkeypatch, volume.device)
    staged = kernel.verifier.verify(d_ino, "reader")
    assert len(staged.new_children) == 150
    once = {page_no: 1 for page_no in pages}
    assert {p: headers[p, True] for p in pages} == once
    assert {p: parses[p, True] for p in pages} == once
