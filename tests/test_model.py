import pytest
from hypothesis import given, strategies as st

from oppvid.model import (
    Ack,
    InvalidNodeIdError,
    Payload,
    PayloadId,
    PayloadIdFormatError,
    RelayMetadata,
    SegmentRecord,
    parse_payload_id,
    render_payload_id,
    validate_node_id,
)


def test_render_layer_id():
    assert render_payload_id(PayloadId("src", 3, 0)) == "src_s3_L0"


def test_parse_extraction_id():
    assert parse_payload_id("src_s3_X") == PayloadId("src", 3, None)


def test_parse_rejects_unknown_kind_token():
    with pytest.raises(PayloadIdFormatError, match="Q9"):
        parse_payload_id("src_s3_Q9")


@pytest.mark.parametrize("bad", ["", "_s3_L0", "src_s3", "src_s3_L", "src_sx_L0", "src", "src_s-1_L0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PayloadIdFormatError):
        parse_payload_id(bad)


node_ids = st.text(alphabet="abcdefgh0123456789-_.", min_size=1, max_size=12).filter(
    lambda s: "_s" not in s
)


@given(node_ids, st.integers(0, 10**6), st.one_of(st.none(), st.integers(0, 50)))
def test_parse_render_round_trip(source, segment, layer):
    original = PayloadId(source, segment, layer)
    assert parse_payload_id(render_payload_id(original)) == original


def test_node_id_rejects_reserved_separator():
    with pytest.raises(InvalidNodeIdError):
        validate_node_id("node_s1")


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", "x_split", "a\n"])
def test_node_id_rejects_bad_forms(bad):
    with pytest.raises(InvalidNodeIdError):
        validate_node_id(bad)


def test_base_layer_is_layer_zero():
    assert not PayloadId("n1", 0, 0).is_extraction_info
    assert PayloadId("n1", 0, None).is_extraction_info


def test_expiry_is_strict_at_boundary():
    p = Payload(PayloadId("n1", 0, 0), 100, created_at=0, ttl_seconds=3600)
    assert not p.expired(3600)
    assert p.expired(3601)


def test_payload_validation():
    with pytest.raises(ValueError):
        Payload(PayloadId("n1", 0, 0), 0, 0, 10)
    with pytest.raises(ValueError):
        Payload(PayloadId("n1", 0, 0), 10, 0, 0)


def test_relay_metadata_validation():
    with pytest.raises(ValueError):
        RelayMetadata(0, ("n1",))
    with pytest.raises(ValueError):
        RelayMetadata(1, ())


def test_relay_metadata_forwarded_appends_once():
    m = RelayMetadata(8, ("src",))
    fwd = m.forwarded("r1", 4)
    assert fwd.traversed_nodes == ("src", "r1")
    assert fwd.copy_count == 4
    assert m.traversed_nodes == ("src",)  # original untouched


def test_ack_empty_placeholder():
    ack = Ack.empty("dst")
    assert ack.timestamp == 0
    assert ack.delivered_ids == frozenset()


def test_segment_record_requires_layers_plus_extraction():
    ids = (PayloadId("s", 1, 0), PayloadId("s", 1, 1), PayloadId("s", 1, None))
    SegmentRecord(1, 100, 2, ids)  # well-formed
    with pytest.raises(ValueError):
        SegmentRecord(1, 100, 2, ids[:2])  # missing extraction info
    with pytest.raises(ValueError):
        SegmentRecord(1, 100, 3, ids)  # claims a layer it does not carry
