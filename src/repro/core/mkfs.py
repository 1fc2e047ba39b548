"""Format a PM device with an empty ArckFS core state."""

from __future__ import annotations

from repro.errors import SuperblockCorrupt
from repro.pm.device import PMDevice
from repro.pm.layout import (
    INODE_MAGIC,
    ITYPE_DIR,
    NTAILS,
    SB_MAGIC,
    ArrayLabel,
    Geometry,
    InodeRecord,
    Superblock,
)

#: Inode number of the root directory.
ROOT_INO = 0

#: Default mode bits for the root directory (rwxrwxrwx, scratch-mount style).
ROOT_MODE = 0o777

#: Fewest data pages a volume may have: mkfs refuses to format less, so a
#: superblock describing less was not written by mkfs.
MIN_PAGES = 4


def mkfs(device: PMDevice, inode_count: int = 1024, root_uid: int = 0,
         stripe_pages: int = 1) -> Geometry:
    """Write a fresh file system: superblock, empty inode table, root dir.

    On a striped device (``device.devices > 1``) the data region is striped
    across the members in units of ``stripe_pages`` pages and each member
    past the first gets an :class:`ArrayLabel` stamped over its metadata
    reservation, so fsck can cross-check the stripe shape; a flat device
    ignores ``stripe_pages``.

    Returns the geometry.  Everything is durably persisted before return, so
    a crash immediately after mkfs recovers to an empty file system.
    """
    devices = device.devices
    geom = Geometry.compute(device.size, inode_count, devices=devices,
                            stripe_pages=stripe_pages if devices > 1 else 1)
    if geom.page_count < MIN_PAGES:
        raise ValueError("device too small for this inode count")

    sb = Superblock(
        magic=SB_MAGIC,
        device_size=device.size,
        block_size=4096,
        inode_count=inode_count,
        itable_off=geom.itable_off,
        bitmap_off=geom.bitmap_off,
        data_off=geom.data_off,
        root_ino=ROOT_INO,
        tx_log_head=0,
        devices=geom.devices,
        stripe_pages=geom.stripe_pages,
    )

    # Zero the inode table and the bitmap region.  The bitmap is sized for
    # the device's full capacity (not just page_count), so fsck can prove
    # the slack bits past the last stripe slot are never used.
    device.store(geom.itable_off, b"\0" * (inode_count * InodeRecord.SIZE))
    device.store(geom.bitmap_off, b"\0" * geom.bitmap_capacity_bytes)

    # Stamp member labels over the metadata reservation of members 1..N-1.
    for d in range(1, geom.devices):
        label = ArrayLabel(device_index=d, device_count=geom.devices,
                           stripe_pages=geom.stripe_pages,
                           dev_size=geom.dev_size)
        device.store(d * geom.dev_size, label.pack())

    # Root directory inode: an empty dir with no log tails yet.
    root = InodeRecord(
        magic=INODE_MAGIC,
        itype=ITYPE_DIR,
        mode=ROOT_MODE,
        uid=root_uid,
        gen=1,
        size=0,
        nlink=2,
        seq=0,
        index_root=0,
        tails=[0] * NTAILS,
    )
    device.store(geom.inode_off(ROOT_INO), root.pack())

    # Superblock last: its magic is the mount-time validity check.
    device.store(0, sb.pack())
    device.drain()
    return geom


def load_geometry(device: PMDevice) -> Geometry:
    """Read the superblock and derive the geometry.

    The one place a superblock is checked against the device it was read
    from: every offset the geometry hands out afterwards lies inside the
    device.  Raises :class:`SuperblockCorrupt` (a ``ValueError``) for an
    unformatted device or a superblock this device cannot hold.
    """
    sb = Superblock.unpack(device.load(0, Superblock.SIZE))
    if not sb.valid:
        raise SuperblockCorrupt("device has no valid superblock (run mkfs)")
    devices, members = max(1, sb.devices), device.devices
    if sb.device_size != device.size:
        raise SuperblockCorrupt(
            f"superblock records {sb.device_size} bytes, the device has "
            f"{device.size}")
    if devices != members:
        raise SuperblockCorrupt(
            f"superblock records {devices} member device(s), the device has "
            f"{members}")
    if sb.root_ino >= sb.inode_count:
        raise SuperblockCorrupt(
            f"root inode {sb.root_ino} outside the {sb.inode_count}-slot "
            f"inode table")
    try:
        geom = Geometry.compute(sb.device_size, sb.inode_count,
                                devices=devices,
                                stripe_pages=max(1, sb.stripe_pages))
    except ValueError as exc:  # members smaller than the metadata region
        raise SuperblockCorrupt(str(exc)) from None
    if geom.page_count < MIN_PAGES:
        raise SuperblockCorrupt(
            f"{sb.inode_count} inodes and {geom.stripe_pages}-page stripes "
            f"leave {geom.page_count} data page(s) on this device")
    return geom
