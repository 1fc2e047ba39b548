"""Unit tests for the ``repro.fsck`` parallel whole-volume checker.

Parametrized over the corruption injectors: every finding class the
taxonomy names must be detected on a planted volume and must repair back
to a provably clean volume.  Worker-count sweeps check that the sharded
pipeline is deterministic and that the modeled scan time actually scales.
"""

import json

import pytest

from repro.cli import main
from repro.concurrency.parallel import stride_shards
from repro.fsck import (
    ALL_CLASSES,
    INJECTORS,
    F_PAGE_RESERVED,
    F_STRIPE_LABEL,
    F_SUPERBLOCK,
    build_volume,
    inject_stripe_label,
    run_fsck,
)
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
    report = run_fsck(device, workers=2, repair=True)
    assert report.clean, report.summary()
    assert expected_cls in report.repairs
    # A quarantine into /lost+found allocates a dentry page; the repairer
    # strands no tagged reservation that a later pass would have to clear.
    if expected_cls != F_PAGE_RESERVED:
        assert F_PAGE_RESERVED not in report.repairs, report.repairs
    # The final report *is* a fresh re-check proving the repaired volume clean.
    recheck = run_fsck(device)
    assert recheck.clean, recheck.summary()


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


def test_findings_deterministic_across_workers():
    reports = []
    for workers in (1, 2, 4):
        device, _kernel, _fs = build_volume()
        INJECTORS["dir-cycle"][0](device)
        INJECTORS["size-mismatch"][0](device)
        reports.append(run_fsck(device, workers=workers))
    dicts = [[f.as_dict() for f in r.findings] for r in reports]
    assert dicts[0] == dicts[1] == dicts[2]
    assert dicts[0]  # and there was something to find


def test_modeled_time_scales_with_workers():
    device, _kernel, _fs = build_volume()
    one = run_fsck(device, workers=1)
    four = run_fsck(device, workers=4)
    assert four.phase_ns["scan"] < one.phase_ns["scan"]
    assert four.modeled_ns < one.modeled_ns
    # The serial graph merge is worker-independent (Amdahl's fraction).
    assert four.phase_ns["graph"] == one.phase_ns["graph"]


def test_stride_shards_balance_and_cover():
    shards = stride_shards(list(range(10)), 4)
    assert len(shards) == 4
    assert sorted(x for s in shards for x in s) == list(range(10))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1
    assert stride_shards([], 4) == [[]]
    assert stride_shards([1, 2], 8) == [[1], [2]]


def test_report_json_shape():
    device, _kernel, _fs = build_volume()
    INJECTORS["nlink-mismatch"][0](device)
    data = json.loads(run_fsck(device).to_json())
    assert set(data) == {"clean", "findings", "classes", "workers", "passes",
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
    assert report.clean and report.workers == 1


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
