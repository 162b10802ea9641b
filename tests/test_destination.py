import pytest
from hypothesis import given, strategies as st

from oppvid.destination import (
    DestinationState,
    IngestResult,
    decodable_quality,
    generate_ack,
    ingest,
)
from conftest import payload


def test_first_arrival_is_new():
    state = DestinationState()
    assert ingest(payload(), state) is IngestResult.NEW
    assert state.received == {payload().id}


def test_second_arrival_is_duplicate_and_keeps_first_time():
    state = DestinationState()
    ingest(payload(), state)
    assert ingest(payload(), state) is IngestResult.DUPLICATE


def test_distinct_layers_of_one_segment_are_both_new():
    state = DestinationState()
    assert ingest(payload(layer=0), state) is IngestResult.NEW
    assert ingest(payload(layer=1), state) is IngestResult.NEW


def _received(state: DestinationState, *specs):
    for layer in specs:
        ingest(payload(source="src", segment=3, layer=layer), state)


def test_full_contiguous_stack_decodes_at_three():
    state = DestinationState()
    _received(state, 0, 1, 2, None)
    assert decodable_quality(3, "src", state) == 3


def test_gap_cuts_quality_at_the_hole():
    state = DestinationState()
    _received(state, 0, 2, None)
    assert decodable_quality(3, "src", state) == 1


def test_missing_base_layer_means_undecodable():
    state = DestinationState()
    _received(state, 1, 2, None)
    assert decodable_quality(3, "src", state) == 0


def test_missing_extraction_info_means_undecodable():
    state = DestinationState()
    _received(state, 0, 1, 2)
    assert decodable_quality(3, "src", state) == 0


def test_ack_carries_everything_received():
    state = DestinationState()
    p1, p2 = payload(segment=1), payload(segment=2)
    ingest(p1, state)
    ingest(p2, state)
    ack = generate_ack(500, "dst", state)
    assert ack.timestamp == 500
    assert ack.delivered_ids == frozenset({p1.id, p2.id})


def test_ack_with_nothing_received_is_empty():
    ack = generate_ack(100, "dst", DestinationState())
    assert ack.delivered_ids == frozenset()


def test_successive_acks_are_cumulative():
    state = DestinationState()
    ingest(payload(segment=1), state)
    first = generate_ack(500, "dst", state)
    ingest(payload(segment=2), state)
    second = generate_ack(800, "dst", state)
    assert first.delivered_ids <= second.delivered_ids
    assert second.timestamp > first.timestamp


def test_ack_time_cannot_go_backwards():
    state = DestinationState()
    generate_ack(500, "dst", state)
    with pytest.raises(ValueError):
        generate_ack(400, "dst", state)


layer_sets = st.sets(st.one_of(st.none(), st.integers(0, 5)))


@given(layer_sets, layer_sets)
def test_quality_monotone_in_received_set(base, extra):
    small, large = DestinationState(), DestinationState()
    for layer in base:
        ingest(payload(source="s", segment=0, layer=layer), small)
    for layer in base | extra:
        ingest(payload(source="s", segment=0, layer=layer), large)
    assert decodable_quality(0, "s", large) >= decodable_quality(0, "s", small)


@given(layer_sets)
def test_quality_counts_exactly_the_contiguous_prefix(layers):
    state = DestinationState()
    for layer in layers:
        ingest(payload(source="s", segment=0, layer=layer), state)
    q = decodable_quality(0, "s", state)
    if q > 0:
        assert None in layers
        assert all(k in layers for k in range(q))
        assert q not in layers
    else:
        assert None not in layers or 0 not in layers
