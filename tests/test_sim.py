"""Simulator tests: hand-traced oracles, conservation, determinism, edge cases.

The three-node chain expectation below was derived by hand before the event
loop existed: control frames are 19/21/8/17/4 bytes at 1 MB/s (microseconds),
so the relay hop starts at t=10.000057 and takes 2.000051 s, and the delivery
hop starts at t=1000.000057 and takes 2.000054 s, landing at t=1002.000111.
"""
from __future__ import annotations

import random

import pytest
from conftest import random_scenario

from oppvid.adaptation import AdaptationConfig, LayerSizeModel
from oppvid.model import Ack, Payload, PayloadId, RelayMetadata
from oppvid.sim import (
    AdaptiveSvc,
    FixedNonSvc,
    InvariantViolationError,
    Scenario,
    ScenarioError,
    Simulator,
    parse_mode,
    run,
    verify_global_invariants,
)
from oppvid.store import StoredEntry
from oppvid.trace import generate_synthetic_trace, parse_trace
from oppvid.wire import AckMsg

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
    sim, p = seeded_sim(chain_scenario(CHAIN), check_invariants=True)
    sim.run()
    delivered_at = sim.dest_state.delivery_times[p.id]
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
        sim.stores[rng.choice(held)[0]]._expiry_heap.clear()  # later sweeps keep what expires
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


def test_parse_mode():
    assert parse_mode("adaptive") == AdaptiveSvc()
    assert parse_mode("fixed:high") == FixedNonSvc("high")
    with pytest.raises(ScenarioError):
        parse_mode("fixed:ultra")
    with pytest.raises(ScenarioError):
        parse_mode("svc")
