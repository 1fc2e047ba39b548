"""The op table (``repro.ops``) is the one declaration of the wire surface:
the server serves its methods and stages its sub-ops, and a sealed log may
carry only the redo-log kinds its rows record."""

import pytest

from repro import errors, ops
from repro.api import Volume, VolumeConfig
from repro.fsck.findings import F_TX_TORN
from repro.pm.device import PMDevice
from repro.server import dispatch
from repro.tx import log
from repro.tx.log import TX_CREATE, TxRecord, build_payload, parse_log, payload_tag, seal

#: Every redo-log kind the log format defines.
KINDS = {v for k, v in vars(log).items() if k.startswith("TX_") and k != "TX_MAGIC"}


def test_every_wire_method_is_a_row():
    assert list(dispatch.SESSION_OPS) == list(ops.METHODS)
    assert all(not row.tx for row in ops.METHODS.values())


def test_every_kind_is_named_by_exactly_one_sub_op_row():
    named = [row.kind for row in ops.OPS if row.kind is not None]
    assert sorted(named) == sorted(KINDS)
    assert all(row.tx for row in ops.OPS if row.kind is not None)
    assert ops.TX_KINDS == KINDS


def test_tx_op_stages_exactly_the_sub_op_rows():
    with Volume.create(8 << 20, VolumeConfig(inode_count=64)) as vol, \
            vol.session("s") as s:
        dispatch.op_tx_begin(s, {})
        for name in {row.name for row in ops.OPS}:
            # No params beyond the name: a sub-op is known, and wants them.
            with pytest.raises(errors.InvalidArgument) as exc:
                dispatch.op_tx_op(s, {"op": name})
            known = "missing required param" in str(exc.value)
            assert known == (name in ops.TX_OPS), (name, exc.value)
        dispatch.op_tx_abort(s, {})


def sealed(records):
    """A volume's image with ``records`` sealed as a pending log, and its
    geometry."""
    vol = Volume.create(8 << 20, VolumeConfig(inode_count=64))
    with vol.session("app") as s:
        s.write_file("/keep", b"kept")
    k = vol.kernel
    payload = build_payload(7, records)
    pages = log.write_log(k.device, k.geom, k.alloc, payload)
    seal(k.device, pages[0], payload_tag(payload))
    return PMDevice.from_image(vol.device.durable_image()), k.geom


@pytest.mark.parametrize("kind", [TX_CREATE, 0, max(KINDS) + 1])
def test_parse_log_accepts_only_the_kinds_a_row_records(kind):
    dev, geom = sealed([TxRecord(kind, "/new", 0o664)])
    parsed, pages = parse_log(dev, geom)
    assert pages
    assert (parsed is not None) == (kind in ops.TX_KINDS)
    mounted = Volume.mount(dev)
    # A log no row can replay is the typed discard case: ``tx-torn``, not
    # valid, and the volume shows none of it.
    assert [f.meta["valid"] for f in mounted.recovery.by_class(F_TX_TORN)] \
        == [kind in ops.TX_KINDS]
    with mounted.session("check") as c:
        assert c.read_file("/keep") == b"kept"
        assert c.exists("/new") == (kind in ops.TX_KINDS)
    assert mounted.fsck().clean
