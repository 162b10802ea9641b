"""Shared builders for tests."""
from __future__ import annotations

import random

import pytest

from oppvid.adaptation import AdaptationConfig, LayerSizeModel
from oppvid.model import Payload, PayloadId, RelayMetadata
from oppvid.sim import AdaptiveSvc, FixedNonSvc, Scenario
from oppvid.trace import generate_synthetic_trace


def pid(source: str = "n0", segment: int = 0, layer: int | None = 0) -> PayloadId:
    return PayloadId(source, segment, layer)


def payload(
    source: str = "n0",
    segment: int = 0,
    layer: int | None = 0,
    size: int = 1_000,
    created_at: int = 0,
    ttl: int = 86_400,
) -> Payload:
    return Payload(PayloadId(source, segment, layer), size, created_at, ttl)


def meta(copies: int = 8, path: tuple[str, ...] = ("n0",)) -> RelayMetadata:
    return RelayMetadata(copies, path)


def sorted_inventory(store) -> list[tuple[PayloadId, int]]:
    """A store's inventory built afresh from its entries, in inventory order."""
    items = [(i, store.get(i).meta.copy_count) for i in store.ids()]
    return sorted(items, key=lambda t: (-t[1], t[0].canonical))


def random_scenario(seed: int) -> Scenario:
    """Acceptance criterion 1's randomized world: 3-20 nodes, mixed modes,
    copy budgets, TTLs and bandwidths, all drawn from ``seed``."""
    rng = random.Random(seed)
    nodes = rng.randint(3, 20)
    duration = rng.choice([2000, 4000, 6000])
    trace = generate_synthetic_trace(
        nodes=nodes,
        duration=duration,
        mean_intercontact=rng.choice([300, 700, 1500, 3000]),
        mean_contact_duration=rng.choice([10, 40, 120, 400]),
        seed=seed,
    )
    return Scenario(
        trace=tuple(trace),
        source="n00",
        destination="n01",
        ttl=rng.choice([400, 1200, 3000]),
        bandwidth_bytes_per_sec=rng.choice([15_000, 60_000, 250_000]),
        duration=duration,
        adaptation=AdaptationConfig(
            segment_period=rng.choice([300, 600]),
            initial_copy_count=rng.choice([2, 8, 16]),
        ),
        mode=rng.choice([AdaptiveSvc(), FixedNonSvc("low")]),
        seed=seed,
        sizes=LayerSizeModel(base_bytes_low=30_000, extraction_info_bytes=400),
    )


@pytest.fixture
def make_payload():
    return payload


@pytest.fixture
def make_meta():
    return meta
