"""Deterministic volume population for fsck tests, the CLI and the bench."""

from __future__ import annotations

from typing import Tuple

from repro.api import Volume, VolumeConfig
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


def build_volume(
    *,
    files: int = 64,
    dirs: int = 4,
    payload: bytes = b"fsck-payload\n",
    size: int = 16 * 1024 * 1024,
    inode_count: int = 256,
    devices: int = 1,
    stripe_pages: int = 1,
) -> Tuple[PMDevice, KernelController, LibFS]:
    """A freshly formatted ArckFS+ volume (crash tracking off) populated
    by uid 1000 with ``dirs`` directories and ``files`` small files spread
    round-robin across them (plus the root).

    Layout is a pure function of the arguments, so every fsck test and the
    bench see identical trees.  ``devices > 1`` builds the same tree on a
    striped volume.
    """
    vol = Volume.create(size, VolumeConfig(
        inode_count=inode_count, devices=devices, stripe_pages=stripe_pages))
    device, kernel = vol.device, vol.kernel
    fs = vol.session("fsck-vol").fs
    dirnames = [f"/d{i}" for i in range(dirs)]
    for name in dirnames:
        fs.mkdir(name)
    parents = [""] + dirnames  # "" == the root
    for i in range(files):
        parent = parents[i % len(parents)]
        path = f"{parent}/f{i}.dat"
        if payload:
            fs.write_file(path, payload)
        else:
            fs.creat(path)
    # Return the pool reservations so a pristine build carries zero
    # advisory findings — fsck tests assert exact finding counts.
    kernel.alloc.drain_pools()
    return device, kernel, fs
