"""Source-side control: segment packaging and layer-count adaptation.

The source looks back at three horizons (defaults 6h/12h/24h), probes the
most recent segment transmitted before each horizon, and adjusts the layer
count: all probes acknowledged -> one more layer, none -> halve, a mix ->
additive increase while the current count is in the lower half of the
allowed range, multiplicative decrease above it.
"""
from __future__ import annotations

import math
from bisect import bisect_right, insort_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from .model import Ack, Payload, PayloadId, RelayMetadata, SegmentRecord

RESOLUTION_SCALE = {"low": 1, "medium": 4, "high": 16}


class DuplicateSegmentError(ValueError):
    """A segment index was recorded twice."""


_transmitted_at = attrgetter("transmitted_at")


class SegmentHistory(list):
    """The source's segment records in transmission-time order, plus the set
    of their segment indices. Records enter through ``record_transmission``;
    being a ``list``, it reads like any other time-sorted sequence."""

    __slots__ = ("indices",)

    def __init__(self):
        super().__init__()
        self.indices: set[int] = set()


@dataclass(frozen=True)
class LayerSizeModel:
    """Synthetic byte sizes per (resolution class, layer index).

    The base layer of the low class is ``base_bytes_low``; every enhancement
    layer is ``enhancement_ratio`` of its class's base; medium/high scale
    with pixel count (4x / 16x low).
    """

    base_bytes_low: int = 2_000_000
    enhancement_ratio: float = 0.6
    extraction_info_bytes: int = 4_096

    def __post_init__(self):
        if self.base_bytes_low < 1:
            raise ValueError(f"base_bytes_low must be >= 1, got {self.base_bytes_low}")
        if self.extraction_info_bytes < 1:
            raise ValueError(f"extraction_info_bytes must be >= 1, got {self.extraction_info_bytes}")
        if not (math.isfinite(self.enhancement_ratio) and self.enhancement_ratio > 0):
            raise ValueError(f"enhancement_ratio must be finite and > 0, got {self.enhancement_ratio}")
        if int(self.base_bytes_low * self.enhancement_ratio) < 1:
            raise ValueError(
                f"enhancement layers would be empty: int({self.base_bytes_low} * "
                f"{self.enhancement_ratio}) < 1"
            )

    def base_bytes(self, resolution: str) -> int:
        return self.base_bytes_low * RESOLUTION_SCALE[resolution]

    def layer_bytes(self, resolution: str, layer_index: int) -> int:
        base = self.base_bytes(resolution)
        return base if layer_index == 0 else int(base * self.enhancement_ratio)

    def single_file_bytes(self, resolution: str, num_layers: int) -> int:
        """Size of one non-scalable segment file covering the same content."""
        return sum(self.layer_bytes(resolution, i) for i in range(num_layers))


@dataclass(frozen=True)
class AdaptationConfig:
    lookbacks: tuple[int, ...] = (21_600, 43_200, 86_400)
    max_layers: int = 4
    initial_layers: int = 1
    initial_copy_count: int = 8
    segment_period: int = 300
    mixed_policy: str = "pivot"  # or "increase" / "decrease", for experiments

    def __post_init__(self):
        if not 1 <= self.initial_layers <= self.max_layers:
            raise ValueError(
                f"initial_layers must be in 1..{self.max_layers}, got {self.initial_layers}"
            )
        if list(self.lookbacks) != sorted(set(self.lookbacks)) or not self.lookbacks:
            raise ValueError("lookbacks must be strictly increasing and non-empty")
        if self.initial_copy_count < 1:
            raise ValueError("initial_copy_count must be >= 1")
        if self.segment_period < 1:
            raise ValueError("segment_period must be >= 1")
        if self.mixed_policy not in ("pivot", "increase", "decrease"):
            raise ValueError(f"unknown mixed_policy {self.mixed_policy!r}")


def _probe(history: Sequence[SegmentRecord], cutoff: float) -> SegmentRecord | None:
    """Most recent record transmitted at or before the cutoff, in a time-sorted history."""
    i = bisect_right(history, cutoff, key=_transmitted_at)
    return history[i - 1] if i else None


def plan_layers(
    history: Sequence[SegmentRecord],
    ack: Ack | None,
    now: float,
    current_layers: int,
    cfg: AdaptationConfig,
) -> int:
    """Layer count for the next segment, from lookback acknowledgment probes."""
    if not 1 <= current_layers <= cfg.max_layers:
        raise ValueError(f"current_layers must be in 1..{cfg.max_layers}")
    delivered = ack.delivered_ids if ack is not None else frozenset()
    results = []
    for lookback in cfg.lookbacks:
        record = _probe(history, now - lookback)
        if record is None:
            continue
        results.append(all(pid in delivered for pid in record.payload_ids))
    if not results:
        return current_layers
    increase = min(current_layers + 1, cfg.max_layers)
    if all(results):
        return increase
    if not any(results):
        return max(1, current_layers // 2)
    # Mixed acknowledgment.
    if cfg.mixed_policy == "increase":
        return increase
    if cfg.mixed_policy == "decrease":
        return max(1, math.ceil(current_layers / 2))
    if current_layers <= cfg.max_layers / 2:
        return increase
    return max(1, math.ceil(current_layers / 2))


def package_segment(
    segment_index: int,
    num_layers: int,
    now: int,
    ttl: int,
    source: str,
    resolution: str,
    sizes: LayerSizeModel,
    cfg: AdaptationConfig,
) -> tuple[SegmentRecord, list[tuple[Payload, RelayMetadata]]]:
    """Emit one payload per layer plus the extraction info, each with a fresh copy budget."""
    if not 1 <= num_layers <= cfg.max_layers:
        raise ValueError(f"num_layers must be in 1..{cfg.max_layers}, got {num_layers}")
    meta = RelayMetadata(cfg.initial_copy_count, (source,))
    out: list[tuple[Payload, RelayMetadata]] = []
    for layer in range(num_layers):
        pid = PayloadId.for_layer(source, segment_index, layer)
        out.append((Payload(pid, sizes.layer_bytes(resolution, layer), now, ttl), meta))
    info_id = PayloadId.for_extraction_info(source, segment_index)
    out.append((Payload(info_id, sizes.extraction_info_bytes, now, ttl), meta))
    record = SegmentRecord(segment_index, now, num_layers, tuple(p.id for p, _ in out))
    return record, out


def record_transmission(record: SegmentRecord, history: SegmentHistory) -> SegmentHistory:
    """Add a record after every record transmitted at or before it, in O(log n)
    comparisons; a segment index already recorded raises ``DuplicateSegmentError``."""
    if record.segment_index in history.indices:
        raise DuplicateSegmentError(f"segment {record.segment_index} already recorded")
    history.indices.add(record.segment_index)
    insort_right(history, record, key=_transmitted_at)
    return history
