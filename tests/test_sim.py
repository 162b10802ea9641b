"""Simulator tests: hand-traced oracles, conservation, determinism, edge cases.

The three-node chain expectation below was derived by hand before the event
loop existed: control frames are 19/21/8/17/4 bytes at 1 MB/s (microseconds),
so the relay hop starts at t=10.000057 and takes 2.000051 s, and the delivery
hop starts at t=1000.000057 and takes 2.000054 s, landing at t=1002.000111.
"""
from __future__ import annotations

import gc
import heapq
import random
import weakref
from collections import Counter

import pytest
from conftest import random_scenario, sorted_inventory

from oppvid.adaptation import AdaptationConfig, LayerSizeModel
from oppvid.model import Ack, Payload, PayloadId, RelayMetadata
from oppvid.sim import (
    AdaptiveSvc,
    FixedNonSvc,
    InvariantViolationError,
    Scenario,
    ScenarioError,
    Simulator,
    _memo_size,
    parse_mode,
    run,
    verify_global_invariants,
)
from oppvid.store import StoredEntry
from oppvid.trace import ContactEvent, ContactKind, generate_synthetic_trace, parse_trace, trace_nodes
from oppvid.wire import AckMsg, InventoryMsg, transmission_size

NO_SEGMENTS = AdaptationConfig(segment_period=10_000_000)


def chain_scenario(trace_text: str, duration: int = 2000, **overrides) -> Scenario:
    defaults = dict(
        trace=tuple(parse_trace(trace_text)),
        source="a",
        destination="c",
        ttl=100_000,
        bandwidth_bytes_per_sec=1_000_000,
        duration=duration,
        adaptation=NO_SEGMENTS,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def seeded_sim(scenario: Scenario, size=2_000_000, copies=8, **sim_kwargs) -> tuple[Simulator, Payload]:
    sim = Simulator(scenario, **sim_kwargs)
    p = Payload(PayloadId("a", 0, 0), size, 0, scenario.ttl)
    sim.seed_payload(p, RelayMetadata(copies, ("a",)))
    return sim, p


CHAIN = """
10 CONN a b up
900 CONN a b down
1000 CONN b c up
1900 CONN b c down
"""


def test_three_node_chain_delivery_time_matches_hand_trace():
    arrivals = []

    def hook(sim, kind, time, data):
        if not arrivals and p.id in sim.dest_state.received:
            arrivals.append(time)

    sim, p = seeded_sim(chain_scenario(CHAIN), check_invariants=True, on_event=hook)
    sim.run()
    (delivered_at,) = arrivals
    assert int(delivered_at) == 1002
    assert abs(delivered_at - 1002.000111) < 1e-5
    # spray-and-wait halving on the relay hop, untouched budget on delivery
    assert sim.stores["a"].get(p.id).meta.copy_count == 4
    assert sim.stores["b"].get(p.id).meta.copy_count == 4
    assert sim.relay_transmissions == 2
    assert sim.bytes_relayed == 4_000_000
    assert sim.contacts_used == 2


def test_contact_shorter_than_transfer_loses_payload_without_halving():
    trace = "10 CONN a b up\n11 CONN a b down\n100 CONN b c up\n101 CONN b c down"
    sim, p = seeded_sim(chain_scenario(trace, duration=200), check_invariants=True)
    sim.run()
    assert p.id not in sim.stores["b"]
    assert sim.stores["a"].get(p.id).meta.copy_count == 8  # no halving without success
    assert p.id not in sim.dest_state.received
    assert verify_global_invariants(sim) == []


def test_same_scenario_runs_identically():
    scenario = chain_scenario(CHAIN, adaptation=AdaptationConfig(segment_period=60))
    assert run(scenario) == run(scenario)


# Priorities at equal times: arrivals, link downs, link ups, segment ticks, ACK ticks.
_PRIORITY = {"msg": 0, "down": 1, "up": 2, "segment": 3, "ack": 4}


def _static_events(scenario: Scenario) -> list[tuple[float, str, tuple]]:
    """The events known before a run, as (time, kind, data), sorted by time,
    priority and build order (trace order, then segment ticks, then ACK
    ticks), cut at the duration."""
    built = [(e.time, e.kind.value, (e.node_a, e.node_b)) for e in scenario.trace]
    period, ack_period, duration = scenario.adaptation.segment_period, scenario.ack_period, scenario.duration
    built += [(t, "segment", (i, t)) for i, t in enumerate(range(period, duration, period))]
    built += [(t, "ack", (t,)) for t in range(ack_period, duration + 1, ack_period)]
    order = sorted(range(len(built)), key=lambda i: (built[i][0], _PRIORITY[built[i][1]], i))
    return [built[i] for i in order if built[i][0] <= duration]


def written_trace(text: str) -> tuple[ContactEvent, ...]:
    """Contact events in the order written, one ``<time> <a> <b> <up|down>``
    per line; ``parse_trace`` would sort them."""
    return tuple(ContactEvent(float(t), ContactKind(kind), a, b)
                 for t, a, b, kind in map(str.split, text.strip().splitlines()))


# Written out of order. At 1 byte/s every control frame takes whole seconds,
# so arrivals land at 37 and 53 exactly, on the two link-downs.
UNSORTED_TRACE = """
90 b c down
10 d e up
53 a b down
60 b c up
37 d e down
10 a b up
"""


def test_events_run_in_time_priority_and_build_order():
    hand = Scenario(trace=written_trace(UNSORTED_TRACE), source="a", destination="c", ttl=100_000,
                    bandwidth_bytes_per_sec=1.0, duration=120, adaptation=AdaptationConfig(segment_period=50),
                    ack_period=30)
    for scenario in [random_scenario(seed) for seed in range(20)] + [hand]:
        stream = []
        Simulator(scenario, on_event=lambda sim, kind, time, data: stream.append((time, kind, data))).run()
        assert [e for e in stream if e[1] != "msg"] == _static_events(scenario)
        keys = [(time, _PRIORITY[kind]) for time, kind, _ in stream]
        assert keys == sorted(keys)
    arrivals = {time for time, kind, _ in stream if kind == "msg"}
    assert arrivals & {time for time, kind, _ in stream if kind == "down"} == {37.0, 53.0}


def test_store_inventory_matches_a_fresh_sort_after_every_event():
    def hook(sim, kind, time, data):
        for store in sim.stores.values():
            assert store.inventory() == sorted_inventory(store)

    for seed in range(20):
        Simulator(random_scenario(seed), on_event=hook).run()


def test_open_connection_counts_match_the_live_connections_after_every_event():
    def hook(sim, kind, time, data):
        live = Counter(node for pair in sim.conns for node in pair)
        assert sim.open_conns == {node: live[node] for node in sim.nodes}

    for seed in range(20):
        Simulator(random_scenario(seed), check_invariants=True, on_event=hook).run()


def test_size_memos_and_expiry_floor_match_a_fresh_look_after_every_event():
    def hook(sim, kind, time, data):
        for node, view in sim.views.items():
            for memo, current, make in ((sim._ack_bytes, view.current_ack(), AckMsg),
                                        (sim._inventory_bytes, view.inventory(), InventoryMsg)):
                if node in memo:  # what a lookup now returns, without changing the memo
                    assert _memo_size({node: memo[node]}, node, current, make) == transmission_size(make(current))
        floor = sim._expiry_floor
        assert all(floor <= store.next_expiry() for store in sim.stores.values())
        if kind == "ack":
            assert floor >= time  # a tick that found it passed raised it

    for seed in range(20):
        Simulator(random_scenario(seed), check_invariants=True, on_event=hook).run()


def test_ack_garbage_collects_relay_copies():
    trace = """
    10 CONN a b up
    900 CONN a b down
    1000 CONN b c up
    1100 CONN b c down
    1500 CONN b c up
    1600 CONN b c down
    1800 CONN a b up
    1900 CONN a b down
    """
    sim, p = seeded_sim(chain_scenario(trace), check_invariants=True)
    sim.run()
    # c acked at t=1200; the 1500 contact purges b, the 1800 contact purges a
    assert p.id not in sim.stores["b"]
    assert p.id not in sim.stores["a"]
    assert sim.lost_copies[p.id] == 8
    assert p.id in sim.dest_state.received


def test_expired_payload_never_leaves_the_source():
    trace = "100 CONN a b up\n200 CONN a b down\n250 CONN b c up\n260 CONN b c down"
    scenario = chain_scenario(trace, duration=300)
    sim = Simulator(scenario, check_invariants=True)
    p = Payload(PayloadId("a", 0, 0), 1000, 0, 50)  # dead before the contact
    sim.seed_payload(p, RelayMetadata(8, ("a",)))
    sim.run()
    assert p.id not in sim.stores["a"]
    assert p.id not in sim.stores["b"]
    assert sim.lost_copies[p.id] == 8


def test_ack_tick_sweeps_only_a_store_with_an_expiry_due():
    # The contacts lie past the end of the run: only ACK ticks sweep here.
    scenario = chain_scenario("5000 CONN a b up\n5001 CONN b c up", duration=1500)
    seen = []

    def hook(sim, kind, time, data):
        if kind == "ack":
            seen.append((time, sim.stores["a"].last_sweep_at, sim.stores["b"].last_sweep_at,
                         short.id in sim.stores["b"], sim.lost_copies.get(short.id, 0)))

    sim = Simulator(scenario, check_invariants=True, on_event=hook)
    short = Payload(PayloadId("a", 0, 0), 1000, 0, 400)  # expires between the ticks at 300 and 600
    sim.seed_payload(short, RelayMetadata(4, ("a",)), at="b")
    sim.seed_payload(Payload(PayloadId("a", 1, 0), 1000, 0, 100_000), RelayMetadata(8, ("a",)))
    sim.run()
    assert seen == [
        (300.0, 0.0, 0.0, True, 0),
        (600.0, 0.0, 600.0, False, 4),  # lost at the first tick after its expiry
        (900.0, 0.0, 600.0, False, 4),  # b now holds nothing due and keeps its sweep time
        (1200.0, 0.0, 600.0, False, 4),
        (1500.0, 0.0, 600.0, False, 4),
    ]


def test_acked_entry_leaves_no_expiry_due():
    # b hands p to c, c acks it at 300, and the 400 contact purges b's only
    # entry; p's expiry at 1000 must not sweep b at the ticks after it.
    trace = "10 CONN b c up\n100 CONN b c down\n400 CONN b c up\n500 CONN b c down\n5000 CONN a b up"
    seen = []

    def hook(sim, kind, time, data):
        if kind == "ack":
            seen.append((time, p.id in sim.stores["b"], sim.stores["b"].last_sweep_at))

    sim = Simulator(chain_scenario(trace, duration=1500), check_invariants=True, on_event=hook)
    p = Payload(PayloadId("a", 0, 0), 1000, 0, 1000)
    sim.seed_payload(p, RelayMetadata(4, ("a",)), at="b")
    sim.run()
    assert seen == [(300.0, True, 0.0), (600.0, False, 0.0), (900.0, False, 0.0),
                    (1200.0, False, 0.0), (1500.0, False, 0.0)]
    assert sim.lost_copies[p.id] == 4


def test_pending_inbound_index_matches_a_scan_of_the_open_connections():
    nonempty = 0
    for seed in range(20):
        def hook(sim, kind, time, data):
            nonlocal nonempty
            for node in sim.nodes:
                scanned = set()
                for conn in sim.conns.values():
                    scanned |= conn.pending.get(node, set())
                assert sim.pending_inbound[node] == scanned
                nonempty += bool(scanned)

        Simulator(random_scenario(seed), on_event=hook).run()
    assert nonempty > 0


def test_five_minute_suppression_counts_connections():
    lines = []
    for k in range(4):
        lines.append(f"{120 * k} CONN a c up")
        lines.append(f"{120 * k + 60} CONN a c down")
    scenario = chain_scenario("\n".join(lines), duration=500)
    sim = Simulator(scenario, check_invariants=True)
    sim.run()
    # graceful at ~t=0, so 120 and 240 are suppressed; 360 connects again
    assert sim.contacts_used == 2


def test_concurrent_contacts_cannot_double_spend_a_replica():
    trace = """
    10 CONN a b up
    10.5 CONN a x up
    400 CONN a b down
    400 CONN a x down
    1000 CONN b c up
    1001 CONN b c down
    """
    sim, p = seeded_sim(chain_scenario(trace, duration=1200), check_invariants=True)
    sim.run()
    # b won the race; x saw the replica locked mid-flight and skipped it
    assert p.id in sim.stores["b"]
    assert p.id not in sim.stores["x"]
    assert sim.stores["a"].get(p.id).meta.copy_count == 4


def _relay_settlements(seed: int) -> set[tuple[bool, bool]]:
    """(sender still holds it, receiver stored it) for each payload a checked
    run of ``random_scenario(seed)`` delivered to a relay."""
    seen = set()
    delivered = 0

    def hook(sim, kind, time, data):
        nonlocal delivered
        if sim.relay_transmissions == delivered:
            return
        delivered = sim.relay_transmissions
        _, sender, receiver, msg = data
        if receiver in sim.stores:
            pid = msg.payload.id
            seen.add((pid in sim.stores[sender], pid in sim.stores[receiver]))

    sim = Simulator(random_scenario(seed), check_invariants=True, on_event=hook)
    sim.run()
    assert verify_global_invariants(sim) == []
    return seen


@pytest.mark.parametrize("seed,corner", [(9, (True, False)), (218, (False, True))],
                         ids=["receiver-does-not-store", "sender-purged-mid-flight"])
def test_relay_settlement_corners_keep_the_ledger_exact(seed, corner):
    # The sender's and the receiver's sides of a relay transfer are booked
    # apart; these worlds reach the corners where only one side holds a copy.
    assert corner in _relay_settlements(seed)


def test_randomized_scenarios_preserve_invariants():
    sizes = LayerSizeModel(base_bytes_low=40_000, extraction_info_bytes=500)
    for seed in range(25):
        rng = random.Random(seed)
        nodes = rng.randint(3, 8)
        trace = generate_synthetic_trace(
            nodes=nodes,
            duration=4000,
            mean_intercontact=rng.choice([400, 800, 1500]),
            mean_contact_duration=rng.choice([15, 60, 200]),
            seed=seed,
        )
        scenario = Scenario(
            trace=tuple(trace),
            source="n00",
            destination="n01",
            ttl=rng.choice([500, 1500, 4000]),
            bandwidth_bytes_per_sec=rng.choice([20_000, 60_000]),
            duration=4000,
            adaptation=AdaptationConfig(segment_period=rng.choice([300, 600])),
            mode=rng.choice([AdaptiveSvc(), FixedNonSvc("low")]),
            seed=seed,
            sizes=sizes,
        )
        run(scenario, check_invariants=True)


def test_removing_relays_does_not_raise_median_delivery():
    # Per-seed the effect can wiggle (dropping a relay re-aims the spraying),
    # so the non-increase is asserted on the median across seeds.
    import statistics

    from oppvid.trace import remove_top_nodes

    week2 = 14 * 86_400
    seeds = range(5)
    medians = []
    for removed in (0, 1, 2, 4):
        results = []
        for seed in seeds:
            base = generate_synthetic_trace(
                nodes=15, duration=week2, mean_intercontact=172_800,
                mean_contact_duration=120, seed=seed, excluded_pairs=[("n00", "n01")],
            )
            scenario = Scenario(
                trace=tuple(remove_top_nodes(base, removed, {"n00", "n01"})),
                source="n00", destination="n01", ttl=172_800,
                bandwidth_bytes_per_sec=3_000_000, duration=week2,
                adaptation=AdaptationConfig(segment_period=7200),
                mode=FixedNonSvc("high"), seed=seed, resolution="low",
            )
            results.append(run(scenario).delivered_base)
        medians.append(statistics.median(results))
    assert medians == sorted(medians, reverse=True)


def test_verifier_detects_doctored_copy_count():
    sim, p = seeded_sim(chain_scenario(CHAIN))
    sim.run()
    sim.stores["b"].update_copy_count(p.id, 7)  # bypasses the ledger
    violations = verify_global_invariants(sim)
    assert any(v.invariant == "copy-conservation" and v.payload_id == p.id for v in violations)


def test_verifier_detects_duplicated_replica_on_another_node():
    sim, p = seeded_sim(chain_scenario(CHAIN))
    sim.run()
    entry = sim.stores["b"].get(p.id)
    sim.stores["b"]._entries[PayloadId("a", 9, 0)] = entry  # doctored store mapping
    violations = verify_global_invariants(sim)
    assert any(v.invariant == "duplicate-replica" for v in violations)


def test_checked_run_raises_on_injected_violation():
    scenario = chain_scenario(CHAIN)
    seen = []

    def sabotage(sim, kind, time, data):
        seen.append(time)
        if kind == "up" and time == 1000:
            sim.stores["b"].update_copy_count(
                PayloadId("a", 0, 0), 1
            )

    sim, p = seeded_sim(scenario, check_invariants=True, on_event=sabotage)
    with pytest.raises(InvariantViolationError) as info:
        sim.run()
    # Raised by the very next event's check, long before the end of the run.
    assert seen[-1] == 1000 and 1000 < sim.now < 1001
    assert [(v.invariant, v.payload_id, v.time) for v in info.value.violations] == [
        ("copy-conservation", p.id, sim.now)
    ]


def test_doctored_mapping_is_caught_by_the_end_of_run_scan():
    seen = []

    def doctor(sim, kind, time, data):
        seen.append(time)
        if kind == "ack" and time == 1500:
            entry = sim.stores["b"].get(PayloadId("a", 0, 0))
            sim.stores["b"]._entries[PayloadId("a", 9, 0)] = entry  # bypasses every mutator

    sim, _ = seeded_sim(chain_scenario(CHAIN), check_invariants=True, on_event=doctor)
    with pytest.raises(InvariantViolationError) as info:
        sim.run()
    assert seen[-1] == 1900  # every event passed its own check
    assert {v.invariant for v in info.value.violations} == {"copy-conservation", "duplicate-replica"}
    assert info.value.violations == verify_global_invariants(sim)


def test_clean_world_reports_no_violations():
    sim, _ = seeded_sim(chain_scenario(CHAIN), check_invariants=True)
    sim.run()
    assert verify_global_invariants(sim) == []


def _sabotage(sim: Simulator, rng: random.Random) -> None:
    """Break one invariant the way a faulty event would: through the world's mutators."""
    held = [(node, pid) for node in sim.relay_nodes for pid in sorted(sim.stores[node].ids(), key=str)]
    node = rng.choice(sim.relay_nodes)
    kind = rng.randrange(5)
    if kind == 0 and held:
        node, pid = rng.choice(held)
        store = sim.stores[node]
        store.update_copy_count(pid, store.get(pid).meta.copy_count + 1)
    elif kind == 1 and held:
        sim._lose(rng.choice(held)[1], 1)
    elif kind == 2:
        stray = Payload(PayloadId("zz", rng.randrange(100), 0), 1000, int(sim.now), 10_000)
        sim.stores[node].insert(StoredEntry(stray, RelayMetadata(1, ("zz",))), sim.now)
    elif kind == 3 and held:
        node, pid = rng.choice(held)
        heap = sim.stores[node]._expiry_heap
        heap[:] = [item for item in heap if item[2] != pid]  # later sweeps keep this entry
        heapq.heapify(heap)
    else:
        dest = sim.scenario.destination
        ack = sim.node_ack[dest]
        sim.node_ack[dest] = Ack(dest, ack.timestamp, ack.delivered_ids | {PayloadId("zz", 0, 0)})


def test_per_event_check_agrees_with_the_full_scan():
    caught = 0
    for seed in range(40):
        rng = random.Random(1000 + seed)
        sabotage_at = rng.choice([None, rng.randrange(1, 400)])
        events = 0

        def hook(sim, kind, time, data):
            nonlocal events
            # This event passed the per-event check, so the full scan must agree.
            assert verify_global_invariants(sim) == []
            events += 1
            if events == sabotage_at:
                _sabotage(sim, rng)

        sim = Simulator(random_scenario(seed), check_invariants=True, on_event=hook)
        try:
            sim.run()
        except InvariantViolationError as exc:
            caught += 1
            assert exc.violations == verify_global_invariants(sim)
        else:
            assert verify_global_invariants(sim) == []
    assert caught >= 10


def test_checked_run_raises_on_a_swallowed_protocol_violation():
    engines = []

    def replay_ack(sim, kind, time, data):
        if kind == "up" and time == 10:
            conn = next(iter(sim.conns.values()))
            engines.append(conn.engines["b"])
            sim._schedule_message(conn, "a", AckMsg(sim.node_ack["a"]), time)  # a second ACK

    sim, _ = seeded_sim(chain_scenario(CHAIN), check_invariants=True, on_event=replay_ack)
    with pytest.raises(InvariantViolationError) as info:
        sim.run()
    assert [v.invariant for v in info.value.violations] == ["protocol-violation"]
    assert "second ACK" in str(info.value)

    # Unchecked, the engine keeps the violation and the contact ends abruptly.
    engines.clear()
    sim, p = seeded_sim(chain_scenario(CHAIN), on_event=replay_ack)
    sim.run()
    assert "second ACK" in str(engines[0].violation)
    assert p.id not in sim.stores["b"] and sim.relay_transmissions == 0


def test_fixed_mode_packages_one_full_size_payload_per_segment():
    trace = "400 CONN a b up\n500 CONN a b down\n600 CONN b c up\n601 CONN b c down"
    scenario = chain_scenario(
        trace,
        duration=700,
        adaptation=AdaptationConfig(segment_period=300),
        mode=FixedNonSvc("low"),
        bandwidth_bytes_per_sec=3_000_000,
    )
    sim = Simulator(scenario, check_invariants=True)
    metrics = sim.run()
    assert [s.layers_sent for s in metrics.segments] == [1, 1]
    expected_size = LayerSizeModel().single_file_bytes("low", 4)
    stored = sim.stores["b"].get(PayloadId("a", 0, 0))
    assert stored is not None and stored.payload.size_bytes == expected_size


def test_adaptive_mode_delivery_and_quality_accounting():
    trace = "400 CONN a c up\n700 CONN a c down"
    scenario = chain_scenario(
        trace,
        duration=900,
        adaptation=AdaptationConfig(segment_period=300, initial_layers=2),
        bandwidth_bytes_per_sec=10_000_000,
    )
    metrics = run(scenario, check_invariants=True)
    first = metrics.segments[0]
    assert first.quality_delivered == 2
    assert first.delivery_delay_seconds is not None
    assert metrics.delivered_base == metrics.delivered_full == 1
    assert metrics.segments[1].quality_delivered == 0  # created mid-contact, never offered


def test_scenario_validation_errors():
    trace = tuple(parse_trace("10 CONN a b up\n20 CONN a b down"))
    good = dict(
        trace=trace, source="a", destination="b", ttl=100,
        bandwidth_bytes_per_sec=1.0, duration=100,
    )
    with pytest.raises(ScenarioError):
        Simulator(Scenario(**{**good, "destination": "a"}))
    with pytest.raises(ScenarioError):
        Simulator(Scenario(**{**good, "bandwidth_bytes_per_sec": 0.0}))
    with pytest.raises(ScenarioError):
        Simulator(Scenario(**{**good, "source": "ghost"}))
    with pytest.raises(ScenarioError):
        Simulator(Scenario(**{**good, "ttl": 0}))
    for bandwidth in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError, match="finite"):
            Simulator(Scenario(**{**good, "bandwidth_bytes_per_sec": bandwidth}))


API_SCENARIO = dict(trace=(), source="a", destination="b", ttl=100, bandwidth_bytes_per_sec=1.0, duration=100)


@pytest.mark.parametrize("bad,field", [
    (dict(ttl=0), "ttl"),
    (dict(bandwidth_bytes_per_sec=float("nan")), "bandwidth_bytes_per_sec"),
    (dict(destination="a"), "destination"),
    (dict(source="a_sb"), "source"),
    (dict(ttl=float("nan")), "ttl"),
    (dict(ttl=float("inf")), "ttl"),
    (dict(ttl=100.5), "ttl"),
    (dict(duration=100.0), "duration"),
    (dict(ack_period=300.0), "ack_period"),
    (dict(seed=0.5), "seed"),
], ids=["ttl-0", "bandwidth-nan", "source-is-destination", "reserved-source-id",
        "ttl-nan", "ttl-inf", "ttl-float", "duration-float", "ack_period-float", "seed-float"])
def test_scenario_rejects_a_bad_field_when_built(bad, field):
    with pytest.raises(ScenarioError) as info:
        Scenario(**{**API_SCENARIO, **bad})
    assert [name for name, _ in info.value.problems] == [field]


def test_scenario_error_names_every_broken_rule():
    with pytest.raises(ScenarioError) as info:
        Scenario(**{**API_SCENARIO, "ttl": 0, "duration": -1, "ack_period": 0})
    assert [name for name, _ in info.value.problems] == ["ttl", "duration", "ack_period"]
    for name in ("ttl", "duration", "ack_period"):
        assert f"{name}: " in str(info.value)


@pytest.mark.parametrize("text,message", [
    ("10 a b up\n10.0000001 a b up\n30 a b down\n40 b c up\n50 b c down",
     "nested up for pair ('a', 'b') at t=10.0000001"),
    ("40 b c up\n50 b c down\n20 a b down", "down without up for pair ('a', 'b') at t=20.0"),
    ("40 b c up\n50 b c down\n10 a b down\n10 a b up",
     "zero-length contact for pair ('a', 'b') at t=10.0: it goes up and down at the same time"),
], ids=["nested-up", "down-without-up", "zero-length"])
def test_scenario_rejects_broken_contact_pairing(text, message):
    with pytest.raises(ScenarioError) as info:
        Scenario(**{**API_SCENARIO, "trace": written_trace(text), "destination": "c"})
    assert info.value.problems == (("trace", message),)


def test_scenario_takes_a_paired_trace_in_any_order():
    # At equal times the down counts first, wherever the trace lists it.
    trace = written_trace("30 a b up\n40 a b down\n10 a b up\n30 a b down")
    assert run(Scenario(**{**API_SCENARIO, "trace": trace}), check_invariants=True).contacts_used == 2


def test_scenario_nodes_are_derived_and_stay_out_of_equality_and_repr():
    trace = tuple(parse_trace("10 CONN a b up\n20 CONN a b down\n30 CONN b c up"))
    scenario = Scenario(**{**API_SCENARIO, "trace": trace})
    assert scenario.nodes == trace_nodes(trace) == {"a", "b", "c"}
    assert "nodes" not in repr(scenario)
    assert scenario == Scenario(**{**API_SCENARIO, "trace": trace})


@pytest.mark.parametrize("sizes", [
    dict(base_bytes_low=0),
    dict(extraction_info_bytes=0),
    dict(enhancement_ratio=-1.0),
    dict(enhancement_ratio=0.0),
    dict(enhancement_ratio=float("nan")),
    dict(enhancement_ratio=float("inf")),
    dict(base_bytes_low=1, enhancement_ratio=0.5),  # enhancement layers of 0 bytes
], ids=["base-0", "extraction-0", "ratio-negative", "ratio-0", "ratio-nan", "ratio-inf", "enhancement-0"])
def test_impossible_layer_sizes_rejected_before_a_scenario_exists(sizes):
    with pytest.raises(ValueError):
        LayerSizeModel(**sizes)


def test_smallest_possible_layer_sizes_run():
    sizes = LayerSizeModel(base_bytes_low=1, enhancement_ratio=1.0, extraction_info_bytes=1)
    scenario = chain_scenario("310 CONN a c up\n340 CONN a c down", duration=600,
                              adaptation=AdaptationConfig(segment_period=300, initial_layers=2), sizes=sizes)
    metrics = run(scenario, check_invariants=True)
    assert metrics.delivered_full == 1
    assert metrics.bytes_relayed == 3  # base, one enhancement layer, extraction info: 1 byte each


def test_parse_mode():
    assert parse_mode("adaptive") == AdaptiveSvc()
    assert parse_mode("fixed:high") == FixedNonSvc("high")
    with pytest.raises(ScenarioError):
        parse_mode("fixed:ultra")
    with pytest.raises(ScenarioError):
        parse_mode("svc")


@pytest.mark.parametrize("make", [
    # a 2 MB transfer at 1 kB/s is still in flight when the run ends
    lambda: seeded_sim(chain_scenario("10 CONN a b up\n900 CONN a b down\n950 CONN b c up",
                                      duration=100, bandwidth_bytes_per_sec=1000))[0],
    lambda: Simulator(random_scenario(3), check_invariants=True),
], ids=["connection-open-at-end", "random-checked"])
def test_finished_world_is_freed_without_the_cyclic_collector(make):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = make()
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        assert gc.collect() == 0  # no connection, engine or view was left in a cycle
    finally:
        if enabled:
            gc.enable()
