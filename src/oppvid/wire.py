"""Binary codec for the five control messages.

Every message starts with a 4-byte big-endian type code (ACK=1, INVENTORY=2,
REQUEST=3, PAYLOAD=4, COMPLETE=5). Strings are u16-length-prefixed UTF-8,
counts are u32, timestamps/sizes are u64. The full layout, with golden byte
sequences, is documented in wire.md at the repository root; payload content
bytes are not encoded (content is modeled by ``size_bytes`` alone).
"""
from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass

from .model import (
    Ack,
    Payload,
    PayloadId,
    RelayMetadata,
    parse_payload_id,
)


class WireError(ValueError):
    """Base class for codec failures."""


class TruncatedMessageError(WireError):
    """Buffer ended before the message did (or had trailing garbage)."""


class UnknownTypeError(WireError):
    """Type code outside 1..5."""


TYPE_ACK = 1
TYPE_INVENTORY = 2
TYPE_REQUEST = 3
TYPE_PAYLOAD = 4
TYPE_COMPLETE = 5


@dataclass(frozen=True, slots=True)
class AckMsg:
    ack: Ack


@dataclass(frozen=True)
class InventoryMsg:
    entries: tuple[tuple[PayloadId, int], ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple((p, int(c)) for p, c in entries))


@dataclass(frozen=True)
class RequestMsg:
    ids: tuple[PayloadId, ...]

    def __init__(self, ids):
        object.__setattr__(self, "ids", tuple(ids))


@dataclass(frozen=True, slots=True)
class PayloadMsg:
    payload: Payload
    meta_for_receiver: RelayMetadata


@dataclass(frozen=True, slots=True)
class CompleteMsg:
    pass


ControlMessage = AckMsg | InventoryMsg | RequestMsg | PayloadMsg | CompleteMsg


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError(f"string too long for wire form ({len(raw)} bytes)")
    return struct.pack(">H", len(raw)) + raw


def _sorted_ack_ids(ack: Ack) -> list[PayloadId]:
    return sorted(ack.delivered_ids, key=lambda p: p.canonical)


def encode(msg: ControlMessage) -> bytes:
    """Serialize a control message to its canonical wire form."""
    if isinstance(msg, AckMsg):
        body = _pack_str(msg.ack.destination)
        body += struct.pack(">Q", msg.ack.timestamp)
        body += struct.pack(">I", len(msg.ack.delivered_ids))
        for pid in _sorted_ack_ids(msg.ack):
            body += _pack_str(pid.canonical)
        return struct.pack(">I", TYPE_ACK) + body
    if isinstance(msg, InventoryMsg):
        body = struct.pack(">I", len(msg.entries))
        for pid, count in msg.entries:
            body += _pack_str(pid.canonical) + struct.pack(">I", count)
        return struct.pack(">I", TYPE_INVENTORY) + body
    if isinstance(msg, RequestMsg):
        body = struct.pack(">I", len(msg.ids))
        for pid in msg.ids:
            body += _pack_str(pid.canonical)
        return struct.pack(">I", TYPE_REQUEST) + body
    if isinstance(msg, PayloadMsg):
        p, meta = msg.payload, msg.meta_for_receiver
        body = _pack_str(p.id.canonical)
        body += struct.pack(">QQQ", p.size_bytes, p.created_at, p.ttl_seconds)
        body += struct.pack(">II", meta.copy_count, len(meta.traversed_nodes))
        for node in meta.traversed_nodes:
            body += _pack_str(node)
        return struct.pack(">I", TYPE_PAYLOAD) + body
    if isinstance(msg, CompleteMsg):
        return struct.pack(">I", TYPE_COMPLETE)
    raise WireError(f"not a control message: {msg!r}")


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedMessageError(
                f"needed {n} bytes at offset {self.pos}, only {len(self.buf) - self.pos} left"
            )
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")

    def payload_id(self) -> PayloadId:
        return parse_payload_id(self.string())

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise TruncatedMessageError(
                f"{len(self.buf) - self.pos} trailing bytes after message end"
            )


def decode(buf: bytes) -> ControlMessage:
    """Parse one control message; rejects unknown types, truncation, trailing bytes.

    Every failure is a ``WireError``, including invalid UTF-8 and field values
    the domain types reject (zero size, zero copy count, a bad node id).
    """
    try:
        return _decode(_Reader(buf))
    except WireError:
        raise
    except ValueError as exc:
        raise WireError(f"invalid field on wire: {exc}") from exc


def _decode(r: _Reader) -> ControlMessage:
    code = r.u32()
    if code == TYPE_ACK:
        destination = r.string()
        timestamp = r.u64()
        ids = frozenset(r.payload_id() for _ in range(r.u32()))
        r.done()
        return AckMsg(Ack(destination, timestamp, ids))
    if code == TYPE_INVENTORY:
        entries = tuple((r.payload_id(), r.u32()) for _ in range(r.u32()))
        r.done()
        return InventoryMsg(entries)
    if code == TYPE_REQUEST:
        ids = tuple(r.payload_id() for _ in range(r.u32()))
        r.done()
        return RequestMsg(ids)
    if code == TYPE_PAYLOAD:
        pid = r.payload_id()
        size_bytes, created_at, ttl = r.u64(), r.u64(), r.u64()
        copy_count = r.u32()
        traversed = tuple(r.string() for _ in range(r.u32()))
        r.done()
        return PayloadMsg(Payload(pid, size_bytes, created_at, ttl), RelayMetadata(copy_count, traversed))
    if code == TYPE_COMPLETE:
        r.done()
        return CompleteMsg()
    raise UnknownTypeError(f"unknown message type code {code}")


def _str_size(text: str) -> int:
    return 2 + len(text.encode("utf-8"))


# Wire bytes of each cumulative ACK's id strings, per id set. The destination
# hands out one frozenset until its next arrival and relays pass that same Ack
# on, so a set is sized once however many handshakes carry it. The key is the
# set's shared plain weakref, so a repeat lookup matches by identity (a
# WeakKeyDictionary would compare the whole set on every hit); an equal but
# distinct set still matches by equality. The finalizer drops the entry with
# its set.
_ACK_IDS_BYTES: dict[weakref.ref, int] = {}


def _ack_ids_bytes(ids: frozenset[PayloadId]) -> int:
    key = weakref.ref(ids)
    size = _ACK_IDS_BYTES.get(key)
    if size is None:
        size = _ACK_IDS_BYTES[key] = sum(_str_size(p.canonical) for p in ids)
        weakref.finalize(ids, _ACK_IDS_BYTES.pop, key, None)
    return size


# Each message type's encoded length, field by field: type code, then the
# body's strings, counts and integers as ``encode`` lays them out.
_SIZERS = {
    AckMsg: lambda m: 4 + _str_size(m.ack.destination) + 8 + 4 + _ack_ids_bytes(m.ack.delivered_ids),
    InventoryMsg: lambda m: 4 + 4 + sum(_str_size(p.canonical) + 4 for p, _ in m.entries),
    RequestMsg: lambda m: 4 + 4 + sum(_str_size(p.canonical) for p in m.ids),
    PayloadMsg: lambda m: (4 + _str_size(m.payload.id.canonical) + 24 + 8
                           + sum(_str_size(node) for node in m.meta_for_receiver.traversed_nodes)),
    CompleteMsg: lambda m: 4,
}


def encoded_size(msg: ControlMessage) -> int:
    """Byte length of encode(msg) without building the bytes (hot path).

    The sizer is picked by exact type. An ACK's id list is sized once per id
    set and remembered until the set is freed (``_ack_ids_bytes``): the same
    cumulative list is re-sent at every handshake.
    """
    sizer = _SIZERS.get(type(msg))
    if sizer is None:
        raise WireError(f"not a control message: {msg!r}")
    return sizer(msg)


def transmission_size(msg: ControlMessage) -> int:
    """Bytes occupying the link: header/metadata plus the payload content itself."""
    if type(msg) is PayloadMsg:
        return encoded_size(msg) + msg.payload.size_bytes
    return encoded_size(msg)
