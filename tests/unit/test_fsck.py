"""Unit tests for the ``repro.fsck`` whole-volume checker.

Parametrized over the corruption injectors: every finding class the
taxonomy names must be detected on a planted volume and must repair back
to a provably clean volume.  The report only counts; the cost model
prices its counts at any worker count, and more workers cut the modeled
time.
"""

import json

import pytest

from repro.cli import main
from repro.core.corestate import CoreState
from repro.core.mkfs import ROOT_INO, load_geometry
from repro.fsck import (
    ALL_CLASSES,
    INJECTORS,
    F_ORPHAN_INODE,
    F_PAGE_RESERVED,
    F_STRIPE_LABEL,
    F_SUPERBLOCK,
    build_volume,
    inject_stripe_label,
    run_fsck,
)
from repro.perf.costmodel import COST
from repro.pm.device import PMDevice


def test_fresh_volume_is_clean():
    device, _kernel, _fs = build_volume()
    report = run_fsck(device)
    assert report.clean, report.summary()
    assert report.inodes_valid == 69  # root + 4 dirs + 64 files
    assert report.dirs == 5 and report.files == 64
    assert report.passes == 1 and not report.repairs


def test_empty_formatted_volume_is_clean():
    device, _kernel, _fs = build_volume(files=0, dirs=0)
    report = run_fsck(device)
    assert report.clean, report.summary()
    assert report.inodes_valid == 1  # just the root


def test_unformatted_device_reports_superblock():
    report = run_fsck(PMDevice(1024 * 1024))
    assert report.classes() == [F_SUPERBLOCK]
    assert not report.findings[0].repairable


@pytest.mark.parametrize("name", sorted(INJECTORS))
def test_injected_corruption_detected(name):
    device, _kernel, _fs = build_volume()
    inject, expected_cls = INJECTORS[name]
    inject(device)
    report = run_fsck(device)
    assert expected_cls in report.classes(), report.summary()


@pytest.mark.parametrize("name", sorted(INJECTORS))
def test_injected_corruption_repairs_clean(name):
    device, _kernel, _fs = build_volume()
    inject, expected_cls = INJECTORS[name]
    inject(device)
    report = run_fsck(device, repair=True)
    assert report.clean, report.summary()
    assert expected_cls in report.repairs
    # A quarantine into /lost+found allocates a dentry page; the repairer
    # strands no tagged reservation that a later pass would have to clear.
    if expected_cls != F_PAGE_RESERVED:
        assert F_PAGE_RESERVED not in report.repairs, report.repairs
    # The final report *is* a fresh re-check proving the repaired volume clean.
    recheck = run_fsck(device)
    assert recheck.clean, recheck.summary()


def test_orphan_with_a_full_inode_table_is_reported_not_repaired():
    """Quarantine needs a slot for ``/lost+found``.  With none free, repair
    leaves the orphan listed and the volume unclean; it used to raise a
    bare ``RuntimeError``."""
    device, _kernel, fs = build_volume(files=7, dirs=0, inode_count=8)
    fs.release_all()
    core = CoreState(device, load_geometry(device))
    root = core.read_inode(ROOT_INO)
    loc = core.live_dentries_with_loc(root)[b"f3.dat"][1]
    core.tombstone(loc)
    device.sfence()
    assert all(core.read_inode(ino).valid for ino in range(8))
    report = run_fsck(device, repair=True)
    assert F_ORPHAN_INODE in report.classes(), report.summary()
    assert F_ORPHAN_INODE not in report.repairs
    assert not report.clean


class TestStripedVolume:
    """fsck over a striped 2-device array: clean pass, stripe-label
    detect/repair, and the stripe-orphan slack-bit story."""

    def _volume(self):
        return build_volume(devices=2, stripe_pages=4)

    def test_fresh_striped_volume_is_clean(self):
        device, _kernel, _fs = self._volume()
        report = run_fsck(device)
        assert report.clean, report.summary()

    def test_stripe_label_detected_and_repaired(self):
        device, _kernel, _fs = self._volume()
        inject_stripe_label(device)
        report = run_fsck(device)
        assert F_STRIPE_LABEL in report.classes(), report.summary()
        repaired = run_fsck(device, repair=True)
        assert repaired.clean, repaired.summary()
        assert F_STRIPE_LABEL in repaired.repairs
        assert run_fsck(device).clean

    def test_stripe_label_injector_requires_array(self):
        device, _kernel, _fs = build_volume()  # flat, single device
        with pytest.raises(RuntimeError):
            inject_stripe_label(device)

    def test_stripe_orphan_detected_on_array(self):
        device, _kernel, _fs = self._volume()
        inject, expected_cls = INJECTORS["stripe-orphan"]
        inject(device)
        report = run_fsck(device)
        assert expected_cls in report.classes(), report.summary()
        repaired = run_fsck(device, repair=True)
        assert repaired.clean, repaired.summary()


def test_modeled_one_worker_is_the_report():
    device, _kernel, _fs = build_volume()
    INJECTORS["dir-cycle"][0](device)
    report = run_fsck(device)
    assert report.findings  # a damaged volume is priced too
    assert len(report.work) == report.inodes_valid


def test_modeled_time_scales_with_workers():
    device, _kernel, _fs = build_volume()
    report = run_fsck(device)
    phases = [COST.fsck_phase_time(report.inodes_total, report.work,
                                   report.pages_claimed, w)
              for w in (1, 2, 4, 8)]
    for fewer, more in zip(phases, phases[1:]):
        assert more["scan"] < fewer["scan"]
        assert more["check"] < fewer["check"]
        assert sum(more.values()) < sum(fewer.values())
        # The serial graph merge is worker-independent (Amdahl's fraction).
        assert more["graph"] == fewer["graph"]


def test_modeled_shards_cover_every_slot_once():
    """Priced at w workers, the scan shards deal every slot to exactly
    one worker: pricing one inode's work alone charges its shard, and the
    slowest shard at one worker per slot is the costliest slot."""
    work = {0: (1, 3), 5: (40, 0), 6: (2, 0), 9: (0, 0)}
    one = COST.fsck_phase_time(10, work, pages_claimed=43)
    record = COST.fsck_phase_time(10, {}, pages_claimed=0)["scan"] / 10
    per_slot = {ino: COST.fsck_phase_time(1, {0: w}, 0)["scan"]
                for ino, w in work.items()}
    assert one["scan"] == pytest.approx(
        sum(per_slot.values()) + (10 - len(work)) * record)
    assert COST.fsck_phase_time(10, work, 43, workers=10)["scan"] == max(
        per_slot.values())
    # Striped: slots 5 and 9 share a shard of two workers, 0 and 6 the other.
    two = COST.fsck_phase_time(10, work, 43, workers=2)["scan"]
    assert two == pytest.approx(max(per_slot[0] + per_slot[6],
                                    per_slot[5] + per_slot[9]) + 3 * record)
    # More workers than valid inodes: the cross-check has one per inode.
    check = COST.fsck_phase_time(10, work, 43, workers=64)["check"]
    assert check == COST.fsck_phase_time(1, {0: (0, 3)}, 0)["check"]


def test_report_json_shape():
    device, _kernel, _fs = build_volume()
    INJECTORS["nlink-mismatch"][0](device)
    data = json.loads(run_fsck(device).to_json())
    assert set(data) == {"clean", "findings", "classes", "passes",
                         "repairs", "stats", "timing"}
    assert data["clean"] is False
    (finding,) = data["findings"]
    assert {"class", "detail", "ino", "page", "name",
            "repairable", "meta"} <= set(finding)
    assert finding["class"] in ALL_CLASSES


def test_repair_is_noop_on_clean_volume():
    device, _kernel, _fs = build_volume(files=8, dirs=2)
    before = device.durable_image()
    report = run_fsck(device, repair=True)
    assert report.clean and not report.repairs
    assert device.durable_image() == before


def test_kernel_controller_fsck_convenience():
    _device, kernel, _fs = build_volume(files=8, dirs=2)
    report = kernel.fsck()
    assert report.clean and report.passes == 1


# --------------------------------------------------------------------------- #
# CLI verb
# --------------------------------------------------------------------------- #


def test_cli_fsck_clean_volume(capsys):
    assert main(["fsck", "--files", "8", "--dirs", "2"]) == 0
    assert "volume is CLEAN" in capsys.readouterr().out


def test_cli_fsck_detects_and_exits_1(capsys):
    assert main(["fsck", "--files", "8", "--dirs", "2",
                 "--inject", "orphan-inode"]) == 1
    assert "orphan-inode" in capsys.readouterr().out


def test_cli_fsck_repair_exits_0(capsys):
    assert main(["fsck", "--files", "8", "--dirs", "2",
                 "--inject", "orphan-inode", "--repair"]) == 0
    out = capsys.readouterr().out
    assert "repaired:" in out and "volume is CLEAN" in out


def test_cli_fsck_json_and_image_roundtrip(tmp_path, capsys):
    img = tmp_path / "vol.img"
    assert main(["fsck", "--files", "8", "--dirs", "2",
                 "--dump-image", str(img), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["clean"] is True
    assert main(["fsck", "--image", str(img)]) == 0


def test_cli_fsck_rejects_unknown_inject_class():
    with pytest.raises(SystemExit):
        main(["fsck", "--inject", "not-a-class"])
