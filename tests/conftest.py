"""Shared fixtures: failpoint/observability hygiene and common FS factories."""

import dataclasses

import pytest

from repro import obs
from repro.concurrency.failpoints import failpoints
from repro.core.config import ARCKFS, ARCKFS_PLUS
from repro.fsck.findings import F_CHAIN_CORRUPT, F_DIR_CYCLE, F_ORPHAN_INODE, TORN_CLASSES
from repro.kernel.controller import KernelController
from repro.libfs.libfs import LibFS
from repro.pm.device import PMDevice


@pytest.fixture(autouse=True)
def clean_failpoints():
    """Failpoints are process-global; never leak hooks between tests."""
    failpoints.clear()
    yield
    failpoints.clear()


@pytest.fixture(autouse=True)
def clean_obs():
    """Observability is process-global too; tests start disabled and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


#: Every configuration as a ``pytest.param``: the artifact, the enhanced
#: system and the artifact with each single patch applied.
EVERY_CONFIG = [pytest.param(ARCKFS, id="arckfs"), pytest.param(ARCKFS_PLUS, id="arckfs+")]
EVERY_CONFIG += [pytest.param(ARCKFS.with_patch(**{f.name: True}, name=f"arckfs+{f.name}"),
                              id=f.name)
                 for f in dataclasses.fields(ARCKFS) if f.name != "name"]


#: What a mount's check says it lost, in fsck's classes: a live dentry it
#: cannot follow (torn or dangling), a chain it cannot walk to its end, a
#: valid record the root does not reach (an orphan root, a cycle).
LOST_CLASSES = TORN_CLASSES | {F_CHAIN_CORRUPT, F_ORPHAN_INODE, F_DIR_CYCLE}


def lost(report):
    """The classes of :data:`LOST_CLASSES` among ``report``'s findings."""
    return LOST_CLASSES.intersection(report.classes())


def build_fs(config=ARCKFS_PLUS, size=16 * 1024 * 1024, inode_count=256, uid=1000):
    device = PMDevice(size)
    kernel = KernelController.fresh(device, inode_count=inode_count, config=config)
    fs = LibFS(kernel, "app1", uid=uid, config=config)
    return device, kernel, fs


@pytest.fixture
def fsx():
    """(device, kernel, fs) triple under full ArckFS+."""
    return build_fs(ARCKFS_PLUS)


@pytest.fixture
def fs(fsx):
    return fsx[2]


@pytest.fixture
def buggy_fsx():
    """(device, kernel, fs) triple under unpatched ArckFS."""
    return build_fs(ARCKFS)


@pytest.fixture
def server_reads(monkeypatch):
    """Every ``data_received`` of every server connection, in order: how many
    bytes it was given and how many the connection was left buffering."""
    from repro.server import server as server_mod

    seen = []
    real = server_mod._Connection.data_received

    def recorded(conn, data):
        real(conn, data)
        seen.append((len(data), len(conn.frames.buffer)))

    monkeypatch.setattr(server_mod._Connection, "data_received", recorded)
    return seen
