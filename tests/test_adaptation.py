import pytest
from hypothesis import given, strategies as st

from oppvid.adaptation import (
    AdaptationConfig,
    DuplicateSegmentError,
    LayerSizeModel,
    SegmentHistory,
    _probe,
    package_segment,
    plan_layers,
    record_transmission,
)
from oppvid.destination import DestinationState, decodable_quality, ingest
from oppvid.model import Ack, PayloadId, SegmentRecord


CFG = AdaptationConfig()


def history_with_probes(n=3, spacing=30_000, layers=1):
    """n records spaced so that record i is the probe for lookback i at now=100000."""
    history = []
    for i in range(n):
        seg = n - 1 - i
        t = 100_000 - CFG.lookbacks[i] - 10 if i < len(CFG.lookbacks) else 0
        ids = tuple(
            [PayloadId("s", seg, k) for k in range(layers)] + [PayloadId("s", seg, None)]
        )
        history.append(SegmentRecord(seg, t, layers, ids))
    history.sort(key=lambda r: r.transmitted_at)
    return history


def ack_for(records):
    ids = frozenset(p for r in records for p in r.payload_ids)
    return Ack("d", 99_999, ids)


def test_all_probes_acked_increases_by_one():
    history = history_with_probes()
    assert plan_layers(history, ack_for(history), 100_000, 3, CFG) == 4


def test_increase_saturates_at_max():
    history = history_with_probes()
    assert plan_layers(history, ack_for(history), 100_000, 4, CFG) == 4


def test_no_probe_acked_halves_down():
    history = history_with_probes()
    assert plan_layers(history, None, 100_000, 3, CFG) == 1


def test_mixed_above_pivot_backs_off():
    cfg = AdaptationConfig(max_layers=8)
    history = history_with_probes()
    partial = ack_for(history[:1])
    assert plan_layers(history, partial, 100_000, 6, cfg) == 3


def test_mixed_below_pivot_probes_upward():
    cfg = AdaptationConfig(max_layers=8)
    history = history_with_probes()
    partial = ack_for(history[:1])
    assert plan_layers(history, partial, 100_000, 2, cfg) == 3


def test_no_probes_holds_current():
    assert plan_layers([], None, 100, 3, CFG) == 3
    recent_only = history_with_probes()[-1:]
    assert plan_layers(recent_only, None, 5, 2, CFG) == 2


def test_partially_acked_probe_counts_as_unacked():
    history = history_with_probes(layers=2)
    # ack only one payload of each probe segment
    ids = frozenset(r.payload_ids[0] for r in history)
    assert plan_layers(history, Ack("d", 1, ids), 100_000, 3, CFG) == 1


def test_mixed_policy_overrides():
    history = history_with_probes()
    partial = ack_for(history[:1])
    up = AdaptationConfig(max_layers=8, mixed_policy="increase")
    down = AdaptationConfig(max_layers=8, mixed_policy="decrease")
    assert plan_layers(history, partial, 100_000, 2, up) == 3
    assert plan_layers(history, partial, 100_000, 2, down) == 1


@st.composite
def histories(draw):
    n = draw(st.integers(0, 8))
    records = []
    used = set()
    for _ in range(n):
        seg = draw(st.integers(0, 40))
        if seg in used:
            continue
        used.add(seg)
        layers = draw(st.integers(1, 4))
        t = draw(st.integers(0, 200_000))
        ids = tuple([PayloadId("s", seg, k) for k in range(layers)] + [PayloadId("s", seg, None)])
        records.append(SegmentRecord(seg, t, layers, ids))
    records.sort(key=lambda r: r.transmitted_at)
    return records


@given(
    histories(),
    st.integers(0, 300_000),
    st.integers(1, 8),
    st.integers(1, 8),
    st.sets(st.tuples(st.integers(0, 40), st.one_of(st.none(), st.integers(0, 3)))),
)
def test_plan_layers_always_in_bounds(history, now, current, max_layers, acked_keys):
    cfg = AdaptationConfig(max_layers=max(max_layers, 1))
    current = min(current, cfg.max_layers)
    ack = Ack("d", 1, frozenset(PayloadId("s", seg, layer) for seg, layer in acked_keys))
    planned = plan_layers(history, ack, now, current, cfg)
    assert 1 <= planned <= cfg.max_layers


@given(
    histories(),
    st.integers(0, 300_000),
    st.integers(1, 4),
    st.sets(st.tuples(st.integers(0, 40), st.one_of(st.none(), st.integers(0, 3)))),
    st.sets(st.tuples(st.integers(0, 40), st.one_of(st.none(), st.integers(0, 3)))),
)
def test_plan_layers_monotone_in_acknowledgment(history, now, current, base_keys, extra_keys):
    base = frozenset(PayloadId("s", seg, layer) for seg, layer in base_keys)
    larger = base | frozenset(PayloadId("s", seg, layer) for seg, layer in extra_keys)
    low = plan_layers(history, Ack("d", 1, base), now, current, CFG)
    high = plan_layers(history, Ack("d", 1, larger), now, current, CFG)
    assert high >= low


# -- package_segment -------------------------------------------------------------

def test_package_three_layers_plus_extraction():
    record, packaged = package_segment(7, 3, 1000, 21_600, "src", "low", LayerSizeModel(), CFG)
    kinds = [p.id.layer for p, _ in packaged]
    assert kinds == [0, 1, 2, None]
    assert record.layers_sent == 3
    assert record.transmitted_at == 1000
    assert all(p.created_at == 1000 and p.ttl_seconds == 21_600 for p, _ in packaged)


def test_package_minimum_single_layer():
    _, packaged = package_segment(0, 1, 0, 100, "src", "low", LayerSizeModel(), CFG)
    assert [p.id.layer for p, _ in packaged] == [0, None]


def test_package_uses_initial_copy_count_and_source_path():
    _, packaged = package_segment(2, 2, 0, 100, "src", "low", LayerSizeModel(), CFG)
    for _, m in packaged:
        assert m.copy_count == 8
        assert m.traversed_nodes == ("src",)


def test_package_sizes_follow_model():
    sizes = LayerSizeModel()
    _, packaged = package_segment(0, 2, 0, 100, "src", "medium", sizes, CFG)
    by_layer = {p.id.layer: p.size_bytes for p, _ in packaged}
    assert by_layer[0] == 8_000_000
    assert by_layer[1] == 4_800_000
    assert by_layer[None] == 4_096


def test_packaged_segment_decodes_fully_iff_all_payloads_arrive():
    _, packaged = package_segment(4, 3, 0, 100, "src", "low", LayerSizeModel(), CFG)
    state = DestinationState()
    for p, _ in packaged[:-1]:  # withhold the extraction info
        ingest(p, state)
    assert decodable_quality(4, "src", state) == 0
    ingest(packaged[-1][0], state)
    assert decodable_quality(4, "src", state) == 3


# -- layer size model -------------------------------------------------------------

def test_default_size_table():
    sizes = LayerSizeModel()
    assert sizes.layer_bytes("low", 0) == 2_000_000
    assert sizes.layer_bytes("low", 1) == 1_200_000
    assert sizes.layer_bytes("high", 0) == 32_000_000
    assert sizes.single_file_bytes("low", 4) == 2_000_000 + 3 * 1_200_000


# -- record_transmission ------------------------------------------------------------

def _record(seg, t):
    return SegmentRecord(seg, t, 1, (PayloadId("s", seg, 0), PayloadId("s", seg, None)))


def test_history_appends_in_time_order():
    history = record_transmission(_record(0, 10), SegmentHistory())
    record_transmission(_record(1, 20), history)
    assert [r.segment_index for r in history] == [0, 1]


def test_duplicate_segment_rejected():
    history = record_transmission(_record(0, 10), SegmentHistory())
    with pytest.raises(DuplicateSegmentError):
        record_transmission(_record(0, 30), history)


def test_append_to_empty_history():
    assert [r.segment_index for r in record_transmission(_record(5, 10), SegmentHistory())] == [5]


def test_out_of_order_record_lands_in_time_order():
    history = SegmentHistory()
    for seg, t in ((0, 10), (1, 30), (2, 20), (3, 5)):
        record_transmission(_record(seg, t), history)
    assert [r.segment_index for r in history] == [3, 0, 2, 1]


def test_equal_times_keep_insertion_order():
    history = SegmentHistory()
    for seg, t in ((0, 10), (1, 20), (2, 10), (3, 20), (4, 10)):
        record_transmission(_record(seg, t), history)
    assert [r.segment_index for r in history] == [0, 2, 4, 1, 3]


def test_duplicate_rejected_after_out_of_order_record():
    history = SegmentHistory()
    record_transmission(_record(0, 30), history)
    record_transmission(_record(1, 10), history)
    with pytest.raises(DuplicateSegmentError):
        record_transmission(_record(0, 20), history)
    assert [r.segment_index for r in history] == [1, 0]


def _linear_probe(history, cutoff):
    """The lookback probe as a plain walk: the last record at or before the cutoff."""
    candidate = None
    for record in history:
        if record.transmitted_at > cutoff:
            break
        candidate = record
    return candidate


@given(histories(), st.one_of(st.integers(-10, 210_000), st.floats(-10, 210_000, allow_nan=False)))
def test_probe_matches_a_linear_walk(history, cutoff):
    assert _probe(history, cutoff) is _linear_probe(history, cutoff)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptationConfig(initial_layers=5, max_layers=4)
    with pytest.raises(ValueError):
        AdaptationConfig(lookbacks=(100, 100))
    with pytest.raises(ValueError):
        AdaptationConfig(mixed_policy="wat")
