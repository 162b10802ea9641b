import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oppvid.model import Ack, Payload, PayloadId, RelayMetadata
from oppvid.wire import (
    AckMsg,
    CompleteMsg,
    InventoryMsg,
    PayloadMsg,
    RequestMsg,
    TruncatedMessageError,
    UnknownTypeError,
    WireError,
    decode,
    encode,
    encoded_size,
    transmission_size,
)

WIRE_DOC = Path(__file__).resolve().parent.parent / "wire.md"


def golden_vectors() -> dict[str, bytes]:
    text = WIRE_DOC.read_text()
    block = re.search(r"```golden\n(.*?)```", text, re.S).group(1)
    out = {}
    for line in block.strip().splitlines():
        name, hexbytes = line.split()
        out[name] = bytes.fromhex(hexbytes)
    return out


GOLDEN_INPUTS = {
    "ACK": AckMsg(Ack("dst", 600, frozenset({PayloadId("n0", 0, 0), PayloadId("n0", 0, None)}))),
    "INVENTORY": InventoryMsg([(PayloadId("a", 1, 0), 4), (PayloadId("b", 2, None), 1)]),
    "REQUEST": RequestMsg([PayloadId("a", 1, 0)]),
    "PAYLOAD": PayloadMsg(
        Payload(PayloadId("a", 1, 0), 2_000_000, 300, 21_600),
        RelayMetadata(4, ("a", "b")),
    ),
    "COMPLETE": CompleteMsg(),
}

EXPECTED_TYPE_CODES = {"ACK": 1, "INVENTORY": 2, "REQUEST": 3, "PAYLOAD": 4, "COMPLETE": 5}


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_bytes_match_wire_doc(name):
    golden = golden_vectors()[name]
    msg = GOLDEN_INPUTS[name]
    assert encode(msg) == golden
    assert decode(golden) == msg


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_header_is_big_endian_type_code(name):
    header = encode(GOLDEN_INPUTS[name])[:4]
    assert int.from_bytes(header, "big") == EXPECTED_TYPE_CODES[name]


def test_complete_is_exactly_the_type_header():
    assert encode(CompleteMsg()) == bytes([0, 0, 0, 5])


def test_unknown_type_code_rejected():
    with pytest.raises(UnknownTypeError):
        decode(bytes([0, 0, 0, 9]))


def test_truncated_header_rejected():
    with pytest.raises(TruncatedMessageError):
        decode(bytes([0, 0, 0]))


def test_truncated_body_rejected():
    full = encode(GOLDEN_INPUTS["REQUEST"])
    with pytest.raises(TruncatedMessageError):
        decode(full[:-1])


def test_trailing_bytes_rejected():
    with pytest.raises(WireError):
        decode(encode(CompleteMsg()) + b"\x00")


node_ids = st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=8).filter(
    lambda s: "_s" not in s
)
payload_ids = st.builds(
    PayloadId,
    node_ids,
    st.integers(0, 10**5),
    st.one_of(st.none(), st.integers(0, 30)),
)
acks = st.builds(
    Ack,
    node_ids,
    st.integers(0, 2**40),
    st.frozensets(payload_ids, max_size=8),
)
payloads = st.builds(
    Payload,
    payload_ids,
    st.integers(1, 2**40),
    st.integers(0, 2**32),
    st.integers(1, 2**32),
)
metas = st.builds(
    RelayMetadata,
    st.integers(1, 64),
    st.lists(node_ids, min_size=1, max_size=5).map(tuple),
)
messages = st.one_of(
    st.builds(AckMsg, acks),
    st.builds(InventoryMsg, st.lists(st.tuples(payload_ids, st.integers(1, 64)), max_size=8)),
    st.builds(RequestMsg, st.lists(payload_ids, max_size=8)),
    st.builds(PayloadMsg, payloads, metas),
    st.just(CompleteMsg()),
)


@given(messages)
def test_decode_encode_round_trip(msg):
    assert decode(encode(msg)) == msg


@given(messages)
def test_encoded_size_matches_encoding(msg):
    assert encoded_size(msg) == len(encode(msg))


def test_transmission_size_charges_payload_content():
    msg = GOLDEN_INPUTS["PAYLOAD"]
    assert transmission_size(msg) == encoded_size(msg) + 2_000_000
    assert transmission_size(CompleteMsg()) == 4


def _str(raw: bytes) -> bytes:
    return struct.pack(">H", len(raw)) + raw


def _payload_frame(size_bytes: int, copy_count: int) -> bytes:
    return (struct.pack(">I", 4) + _str(b"a_s0_L0") + struct.pack(">QQQ", size_bytes, 0, 10)
            + struct.pack(">II", copy_count, 1) + _str(b"a"))


@pytest.mark.parametrize("frame", [
    struct.pack(">I", 1) + _str(b"\xff") + struct.pack(">QI", 0, 0),  # invalid UTF-8
    _payload_frame(size_bytes=0, copy_count=1),
    _payload_frame(size_bytes=1, copy_count=0),
    struct.pack(">I", 1) + _str(b"a b") + struct.pack(">QI", 0, 0),  # bad ACK destination
], ids=["utf8", "size-0", "copy-count-0", "ack-destination"])
def test_invalid_fields_raise_wire_error(frame):
    with pytest.raises(WireError):
        decode(frame)


frames = st.one_of(
    st.binary(max_size=96),
    st.builds(lambda code, body: struct.pack(">I", code) + body, st.integers(1, 5), st.binary(max_size=96)),
    messages.map(encode).flatmap(
        lambda raw: st.tuples(st.just(raw), st.integers(0, max(len(raw) - 1, 0)), st.integers(0, 255))
    ).map(lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:]),
)


@given(frames)
def test_arbitrary_bytes_decode_or_raise_wire_error(frame):
    try:
        decode(frame)
    except WireError:
        pass
