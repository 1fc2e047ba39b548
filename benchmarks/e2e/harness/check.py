"""The output check every run ends with, and the recovery it times.

A run is correct when no op's returned value differed from the shadow
model, the live volume is fsck-clean and reads back as the model, and the
remounted ``durable_image()`` — which holds only fenced bytes, and is
snapshotted before anything is closed — is fsck-clean and holds every
acknowledged write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.api import Volume

from .host import RefTimer, warm_memory
from .model import Model

#: Copies of the volume a remount allocates: its copy of the image and
#: the new device.
MOUNT_FOOTPRINT = 2


def reads_back(volume: Volume, model: Model) -> bool:
    """Every file and every directory listing equals the model's."""
    with volume.session("readback") as s:
        return (all(s.read_file(path) == data
                    for path, data in model.files.items())
                and all(s.readdir(path) == names
                        for path, names in model.dirs.items()))


@dataclass
class Snapshot:
    """A volume's ``durable_image()`` and how long taking it took."""

    image: bytes
    seconds: float


def snapshot(volume: Volume) -> Snapshot:
    """The durable image as it stands: taken right after the timed phase,
    before any session is closed or released, so a fence issued by
    teardown cannot make an unfenced acknowledged write look durable."""
    warm_memory(volume.device.size)
    with RefTimer() as took:
        image = volume.device.durable_image()
    return Snapshot(image, took.seconds)


@dataclass
class Recovery:
    """One crash-recovery pass and the parts of its time, in
    reference-host seconds."""

    ok: bool
    durable_image_s: float
    mount_s: float
    check_s: float
    readback_s: float
    inodes: int

    @property
    def total_s(self) -> float:
        return (self.durable_image_s + self.mount_s + self.check_s
                + self.readback_s)


def recover(snap: Snapshot, model: Model) -> Recovery:
    """``durable_image()`` -> ``Volume.mount`` -> ``fsck()`` -> read back."""
    with RefTimer() as mount:
        mounted = Volume.mount(snap.image)
    with RefTimer() as fsck:
        report = mounted.fsck()
    with RefTimer() as readback:
        same = reads_back(mounted, model)
    mounted.close()
    return Recovery(report.clean and same, snap.seconds, mount.seconds,
                    fsck.seconds, readback.seconds, report.inodes_total)


@dataclass
class Verdict:
    correct: bool
    #: the recovery, its times summed over the volumes (what restarting a
    #: two-tenant server costs).
    recovery: Recovery


def verify(volumes: List[Volume], models: List[Model],
           snapshots: List[Snapshot]) -> Verdict:
    """The whole output check: the closed (quiesced) volumes read back as
    the models, and so do the images snapshotted before they were closed."""
    correct = all(m.mismatches == 0 for m in models)
    for volume, model in zip(volumes, models):
        correct &= volume.fsck().clean and reads_back(volume, model)
    warm_memory(MOUNT_FOOTPRINT * max(v.device.size for v in volumes))
    per_volume = [recover(s, m) for s, m in zip(snapshots, models)]
    correct &= all(r.ok for r in per_volume)
    total = Recovery(True, *(sum(getattr(r, part) for r in per_volume)
                             for part in ("durable_image_s", "mount_s",
                                          "check_s", "readback_s", "inodes")))
    return Verdict(bool(correct), total)
