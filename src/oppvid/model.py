"""Shared domain types: payload identity, relay metadata, acknowledgments."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache


class PayloadIdFormatError(ValueError):
    """Raised when a payload-id string does not match the canonical grammar."""


class InvalidNodeIdError(ValueError):
    """Raised for node ids that would break the payload-id grammar."""


# Node ids are opaque strings, but "_s" is reserved as the id separator and
# whitespace would break the trace/wire text forms.
_NODE_ID_RE = re.compile(r"\S+")


# Each contact event and payload id checks its node ids, and a run has few.
@lru_cache(maxsize=1024)
def validate_node_id(node_id: str) -> str:
    if not node_id or not _NODE_ID_RE.fullmatch(node_id):
        raise InvalidNodeIdError(f"node id must be non-empty without whitespace: {node_id!r}")
    if "_s" in node_id:
        raise InvalidNodeIdError(f"node id must not contain the reserved '_s' separator: {node_id!r}")
    return node_id


@dataclass(frozen=True)
class PayloadId:
    """Identity of one unit of data: a video layer or the extraction info of a segment.

    ``layer`` is the layer index (0 = base layer) or None for the
    extraction-info payload of the segment.
    """

    source_node: str
    segment_index: int
    layer: int | None

    def __post_init__(self):
        validate_node_id(self.source_node)
        if self.segment_index < 0:
            raise ValueError(f"segment_index must be >= 0, got {self.segment_index}")
        if self.layer is not None and self.layer < 0:
            raise ValueError(f"layer index must be >= 0, got {self.layer}")
        # Ids are hashed constantly (store keys, ack sets); cache the hash.
        object.__setattr__(self, "_hash", hash((self.source_node, self.segment_index, self.layer)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_extraction_info(self) -> bool:
        return self.layer is None

    @classmethod
    def for_layer(cls, source: str, segment: int, layer: int) -> PayloadId:
        return cls(source, segment, layer)

    @classmethod
    def for_extraction_info(cls, source: str, segment: int) -> PayloadId:
        return cls(source, segment, None)

    @cached_property
    def canonical(self) -> str:
        return render_payload_id(self)

    def __str__(self) -> str:
        return self.canonical


_ID_TAIL_RE = re.compile(r"^(\d+)_(L(\d+)|X)$")


def render_payload_id(pid: PayloadId) -> str:
    """Canonical text form: ``<source>_s<segment>_L<k>`` or ``<source>_s<segment>_X``."""
    kind = "X" if pid.layer is None else f"L{pid.layer}"
    return f"{pid.source_node}_s{pid.segment_index}_{kind}"


def parse_payload_id(text: str) -> PayloadId:
    """Inverse of render_payload_id; rejects anything outside the grammar."""
    sep = text.find("_s")
    if sep <= 0:
        raise PayloadIdFormatError(f"missing '_s' separator after source in {text!r}")
    source, tail = text[:sep], text[sep + 2:]
    m = _ID_TAIL_RE.match(tail)
    if not m:
        raise PayloadIdFormatError(f"bad segment/kind token {tail!r} in {text!r}")
    segment = int(m.group(1))
    layer = int(m.group(3)) if m.group(3) is not None else None
    try:
        return PayloadId(source, segment, layer)
    except (InvalidNodeIdError, ValueError) as exc:
        raise PayloadIdFormatError(str(exc)) from exc


@dataclass(frozen=True)
class Payload:
    """One stored/transmitted unit; content is modeled by its size only."""

    id: PayloadId
    size_bytes: int
    created_at: int
    ttl_seconds: int

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {self.ttl_seconds}")
        if self.created_at < 0:
            raise ValueError(f"created_at must be >= 0, got {self.created_at}")

    def expired(self, now: float) -> bool:
        # Strict: at exactly created_at + ttl the payload is still alive.
        return now > self.created_at + self.ttl_seconds


@dataclass(frozen=True)
class RelayMetadata:
    """Replica budget and path carried alongside every payload copy."""

    copy_count: int
    traversed_nodes: tuple[str, ...]

    def __post_init__(self):
        if self.copy_count < 1:
            raise ValueError(f"copy_count must be >= 1, got {self.copy_count}")
        if not self.traversed_nodes:
            raise ValueError("traversed_nodes must start with the source node")

    def forwarded(self, receiver: str, receiver_count: int) -> RelayMetadata:
        """Metadata for the receiving node: path extended by one hop."""
        return RelayMetadata(receiver_count, self.traversed_nodes + (receiver,))


@dataclass(frozen=True)
class Ack:
    """Cumulative, destination-stamped list of delivered payload ids."""

    destination: str
    timestamp: int
    delivered_ids: frozenset[PayloadId] = field(default_factory=frozenset)

    def __post_init__(self):
        validate_node_id(self.destination)
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")

    @classmethod
    def empty(cls, destination: str) -> Ack:
        """The 'no acknowledgment known yet' placeholder every node starts with."""
        return cls(destination, 0, frozenset())


@dataclass(frozen=True)
class SegmentRecord:
    """Source-side record of one packaged segment, used for adaptation lookback."""

    segment_index: int
    transmitted_at: int
    layers_sent: int
    payload_ids: tuple[PayloadId, ...]

    def __post_init__(self):
        if self.layers_sent < 1:
            raise ValueError(f"layers_sent must be >= 1, got {self.layers_sent}")
        layers = sorted(p.layer for p in self.payload_ids if not p.is_extraction_info)
        extraction = [p for p in self.payload_ids if p.is_extraction_info]
        if layers != list(range(self.layers_sent)) or len(extraction) != 1:
            raise ValueError(
                f"segment {self.segment_index} must carry layers 0..{self.layers_sent - 1} "
                f"plus one extraction-info payload"
            )
