"""Differential test: every reader of the core state agrees with the walker.

The paper's bugs are places where two readers of the same core state
disagreed.  ``CoreState.walk_chain`` is now the only code that follows a
page chain, so poisoning one link must look the same to all three
consumers built on it:

* the **verifier** rejects the inode (``CorruptionDetected`` on release);
* **fsck** reports it — for a link the walker refuses, a ``chain-corrupt``
  finding whose ``page`` / ``last_good`` are the walker's ``.bad`` /
  ``.last_good``; for a well-formed link onto somebody else's page, a
  ``page-double-use`` finding naming that page;
* a fresh **LibFS attach** raises the walker's typed error (or, for the
  well-formed link, attaches — the structure parses, it is just not ours).

One link is overwritten per case — a ``next_page``, a tail head or an
index slot — with a cycle, an out-of-range page or a foreign page, on a
flat and on a 4-device striped volume.
"""

import functools
import random

import pytest

from repro.api import Volume, VolumeConfig
from repro.core.corestate import CoreState
from repro.errors import ChainCorrupt, CorruptionDetected
from repro.fsck.findings import F_CHAIN_CORRUPT, F_PAGE_DOUBLE_USE
from repro.pm.layout import INDEX_SLOTS, PAGE_SIZE

GEOMETRIES = {
    "flat": {},
    "striped4": {"devices": 4, "stripe_pages": 4},
}
SITES = ("dir-link", "tail-head", "index-link", "index-slot")
POISONS = ("cycle", "range", "foreign")

#: /big needs a two-page index chain so "index-link" has a link to poison.
BIG_PAGES = INDEX_SLOTS + 40


@functools.lru_cache(maxsize=None)
def seeded_image(geometry: str) -> bytes:
    """A populated volume: a multi-page directory log, a file whose index
    chain has two pages, and a second directory and file to steal from."""
    vol = Volume.create(16 << 20, VolumeConfig(
        inode_count=512, **GEOMETRIES[geometry]))
    with vol.session("seed") as s:
        s.mkdir("/victim")
        for i in range(150):
            s.creat(f"/victim/entry-{i:03d}-{'n' * 30}")
        s.write_file("/big", bytes(range(256)) * (BIG_PAGES * PAGE_SIZE // 256))
        s.mkdir("/other")
        for i in range(4):
            s.creat(f"/other/o{i}")
        s.write_file("/donor", b"d" * (3 * PAGE_SIZE))
    vol.close()
    return vol.device.durable_image()


def poison(core: CoreState, inos, site: str, kind: str, rng: random.Random):
    """Overwrite one link of the victim; returns (victim ino, value written)."""
    other = core.read_inode(inos["/other"])
    donor = core.read_inode(inos["/donor"])
    out_of_range = core.geom.page_count + rng.randint(1, 1 << 20)

    if site in ("dir-link", "tail-head"):
        ino = inos["/victim"]
        rec = core.read_inode(ino)
        chain = core.dir_pages(rec)
        assert len(chain) >= 2
        foreign = rng.choice(core.dir_pages(other))
        if site == "dir-link":
            at = rng.randrange(len(chain))
            value = {"cycle": rng.choice(chain[:at + 1]),
                     "range": out_of_range, "foreign": foreign}[kind]
            core.link_page(chain[at], value)
        else:
            # A tail head cycles by pointing an *empty* tail into a sibling
            # tail's chain; pointing the populated tail at its own chain
            # would merely shorten it.
            empty = [t for t, head in enumerate(rec.tails) if not head]
            tail = rng.choice(empty if kind == "cycle" else range(len(rec.tails)))
            value = {"cycle": rng.choice(chain),
                     "range": out_of_range, "foreign": foreign}[kind]
            rec.tails[tail] = value
            core.write_inode(ino, rec)
        return ino, value

    ino = inos["/big"]
    rec = core.read_inode(ino)
    index = core.index_pages(rec)
    assert len(index) == 2
    if site == "index-link":
        at = rng.randrange(len(index))
        value = {"cycle": rng.choice(index[:at + 1]),
                 "range": out_of_range, "foreign": donor.index_root}[kind]
        core.link_page(index[at], value)
    else:
        pages = core.file_pages(rec)
        pos = rng.randrange(1, len(pages))
        value = {"cycle": rng.choice(pages[:pos]), "range": out_of_range,
                 "foreign": rng.choice(core.file_pages(donor))}[kind]
        core.store_index_slots(index, pos, [value])
        core.mem.sfence()
    return ino, value


@pytest.mark.parametrize("kind", POISONS)
@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_consumers_agree_with_the_walker(geometry, site, kind):
    rng = random.Random(f"{geometry}/{site}/{kind}")
    vol = Volume.mount(seeded_image(geometry))
    core = CoreState(vol.device, vol.kernel.geom)
    reader = vol.session("reader")
    paths = ("/victim", "/big", "/other", "/donor")
    inos = {path: reader.stat(path).ino for path in paths}
    reader.shutdown()

    ino, value = poison(core, inos, site, kind, rng)

    # The reference: what the one walker says about the poisoned inode.
    try:
        core.owned_pages(core.read_inode(ino))
        refused = None
    except ChainCorrupt as exc:
        refused = exc
    # Out-of-range links and cycles within one chain are refused; a link
    # onto a page some other chain (or slot) already holds is well-formed.
    structural = kind == "range" or (
        kind == "cycle" and site in ("dir-link", "index-link"))
    assert (refused is not None) == structural
    if structural:
        assert refused.bad == value

    # fsck, reading the raw device.
    findings = vol.fsck().findings
    if structural:
        (found,) = [f for f in findings if f.cls == F_CHAIN_CORRUPT]
        assert found.ino == ino
        assert (found.page, found.meta["last_good"]) == (
            refused.bad, refused.last_good)
    else:
        assert any(f.cls == F_PAGE_DOUBLE_USE and f.page == value
                   for f in findings)

    # The verifier, on an ordinary write acquisition and release.
    vol.session("probe")
    vol.kernel.acquire("probe", ino, write=True)
    with pytest.raises(CorruptionDetected) as rejected:
        vol.kernel.release("probe", ino)
    assert rejected.value.ino == ino

    # A fresh LibFS building its auxiliary state from the same pages.
    fresh = vol.session("fresh")
    path = "/victim" if ino == inos["/victim"] else "/big"
    attach = fresh.readdir if path == "/victim" else fresh.read_file
    if structural:
        with pytest.raises(ChainCorrupt) as typed:
            attach(path)
        assert (typed.value.bad, typed.value.last_good) == (
            refused.bad, refused.last_good)
        assert typed.value.code == ChainCorrupt.CODE
    else:
        attach(path)
