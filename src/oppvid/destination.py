"""Destination-side model: payload intake, decodable quality, ACK generation."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import Ack, Payload, PayloadId


class IngestResult(Enum):
    NEW = "new"
    DUPLICATE = "duplicate"


@dataclass
class DestinationState:
    received: set[PayloadId] = field(default_factory=set)
    last_ack_time: int = 0
    _frozen_received: frozenset[PayloadId] | None = None


def ingest(payload: Payload, state: DestinationState) -> IngestResult:
    """Record a payload arrival; only the first arrival of an id counts."""
    pid = payload.id
    if pid in state.received:
        return IngestResult.DUPLICATE
    state.received.add(pid)
    state._frozen_received = None
    return IngestResult.NEW


def decodable_quality(segment_index: int, source: str, state: DestinationState) -> int:
    """Number of usable layers: base plus the contiguous enhancement run.

    Zero when the extraction info or the base layer is missing; a gap in the
    enhancement layers cuts off everything above it.
    """
    if PayloadId.for_extraction_info(source, segment_index) not in state.received:
        return 0
    quality = 0
    while PayloadId.for_layer(source, segment_index, quality) in state.received:
        quality += 1
    return quality


def generate_ack(now: int, destination: str, state: DestinationState) -> Ack:
    """Cumulative acknowledgment of everything ever received, stamped now."""
    if now < state.last_ack_time:
        raise ValueError(f"ack time went backwards: {now} < {state.last_ack_time}")
    state.last_ack_time = now
    if state._frozen_received is None:
        state._frozen_received = frozenset(state.received)
    return Ack(destination, now, state._frozen_received)
