"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Expected values were
derived independently before the implementation: the spray-and-wait table
in criterion 2 was computed by hand on paper, the decodability table in
criterion 4 enumerates the contiguity rule, and the adaptation table in
criterion 5 spells the increase/halve rules out literally.
"""
from __future__ import annotations

import math
import re
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import random_scenario

from oppvid.adaptation import AdaptationConfig
from oppvid.cli import main as cli_main
from oppvid.destination import DestinationState, decodable_quality, ingest
from oppvid.model import Ack, Payload, PayloadId, RelayMetadata, SegmentRecord
from oppvid.adaptation import plan_layers
from oppvid.sim import (
    AdaptiveSvc,
    FixedNonSvc,
    Scenario,
    Simulator,
    run,
)
from oppvid.trace import (
    contact_counts,
    generate_synthetic_trace,
    parse_trace,
    remove_top_nodes,
)
from oppvid.wire import (
    AckMsg,
    CompleteMsg,
    InventoryMsg,
    PayloadMsg,
    RequestMsg,
    decode,
    encode,
)

WIRE_DOC = Path(__file__).resolve().parent.parent / "wire.md"
TWO_WEEKS = 14 * 86_400


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


# -- 1. conservation across randomized scenarios --------------------------------

def test_criterion_1_conservation_over_1000_random_scenarios():
    with criterion(1, "copy conservation over 1000 randomized scenarios"):
        started = time.monotonic()
        for seed in range(1000):
            run(random_scenario(seed), check_invariants=True)
        elapsed = time.monotonic() - started
        print(f"  (1000 checked scenarios in {elapsed:.1f}s)")
        assert elapsed < 120.0


# -- 2. binary spray-and-wait replica table ----------------------------------------

SNW_TRACE = """
60 CONN s r1 up
110 CONN s r1 down
120 CONN s r2 up
170 CONN s r2 down
180 CONN r1 r2 up
230 CONN r1 r2 down
240 CONN s r1 up
290 CONN s r1 down
300 CONN r2 d up
350 CONN r2 d down
360 CONN r1 d up
410 CONN r1 d down
660 CONN s d up
710 CONN s d down
720 CONN r1 r2 up
770 CONN r1 r2 down
780 CONN r2 d up
830 CONN r2 d down
840 CONN r1 d up
890 CONN r1 d down
"""

# Hand-computed on paper before implementation. One payload, L=8, source s,
# destination d. Copy multisets over the relay stores after each contact:
#   60: s->r1 splits 8 into 4+4                          -> [4, 4]
#  120: s->r2 splits s's 4 into 2+2                      -> [2, 2, 4]
#  180: r1,r2 both hold it; nothing moves                -> [2, 2, 4]
#  240: suppressed (graceful s-r1 contact 180 s earlier) -> [2, 2, 4]
#  300: r2 delivers to d; budgets untouched              -> [2, 2, 4]
#  360: d already has it; ack still empty (tick 300)     -> [2, 2, 4]
#  660: d's ack (tick 600) reaches s; s purges its 2     -> [2, 4]
#  720: r1,r2 both hold it; neither carries a newer ack  -> [2, 4]
#  780: ack reaches r2; purges its 2                     -> [4]
#  840: ack reaches r1; purges its 4                     -> []
SNW_EXPECTED = [
    (110, [4, 4]),
    (170, [2, 2, 4]),
    (230, [2, 2, 4]),
    (290, [2, 2, 4]),
    (350, [2, 2, 4]),
    (410, [2, 2, 4]),
    (710, [2, 4]),
    (770, [2, 4]),
    (830, [4]),
    (890, []),
]


def test_criterion_2_binary_spray_and_wait_oracle_table():
    with criterion(2, "binary spray-and-wait replica table on the 4-node toy"):
        scenario = Scenario(
            trace=tuple(parse_trace(SNW_TRACE)),
            source="s",
            destination="d",
            ttl=100_000,
            bandwidth_bytes_per_sec=1_000_000,
            duration=1_000,
            adaptation=AdaptationConfig(segment_period=10_000_000),
        )
        observed: list[tuple[float, list[int]]] = []
        p = Payload(PayloadId("s", 0, 0), 10_000, 0, 100_000)

        def capture(sim, kind, when, data):
            if kind == "down":
                copies = sorted(
                    sim.stores[n].get(p.id).meta.copy_count
                    for n in sim.relay_nodes
                    if p.id in sim.stores[n]
                )
                observed.append((when, copies))

        sim = Simulator(scenario, check_invariants=True, on_event=capture)
        sim.seed_payload(p, RelayMetadata(8, ("s",)))
        sim.run()
        assert observed == [(float(t), c) for t, c in SNW_EXPECTED]
        assert p.id in sim.dest_state.received


# -- 3. wire golden bytes -------------------------------------------------------------

GOLDEN_MESSAGES = {
    "ACK": (1, AckMsg(Ack("dst", 600, frozenset({PayloadId("n0", 0, 0), PayloadId("n0", 0, None)})))),
    "INVENTORY": (2, InventoryMsg([(PayloadId("a", 1, 0), 4), (PayloadId("b", 2, None), 1)])),
    "REQUEST": (3, RequestMsg([PayloadId("a", 1, 0)])),
    "PAYLOAD": (4, PayloadMsg(
        Payload(PayloadId("a", 1, 0), 2_000_000, 300, 21_600), RelayMetadata(4, ("a", "b")))),
    "COMPLETE": (5, CompleteMsg()),
}


def test_criterion_3_wire_golden_bytes():
    with criterion(3, "checked-in golden bytes for all five control messages"):
        block = re.search(r"```golden\n(.*?)```", WIRE_DOC.read_text(), re.S).group(1)
        golden = {}
        for line in block.strip().splitlines():
            name, hexbytes = line.split()
            golden[name] = bytes.fromhex(hexbytes)
        assert sorted(golden) == sorted(GOLDEN_MESSAGES)
        for name, (code, msg) in GOLDEN_MESSAGES.items():
            raw = encode(msg)
            assert raw == golden[name], f"{name} bytes diverge from wire.md"
            assert decode(raw) == msg
            assert int.from_bytes(raw[:4], "big") == code


# -- 4. decodability truth table ---------------------------------------------------------

# All 16 subsets of {L0, L1, L2, X} for a 3-layer segment; quality is the
# longest contiguous layer run from the base, and 0 without the extraction
# info. Enumerated by hand.
DECODE_TABLE = {
    frozenset(): 0,
    frozenset({"L0"}): 0,
    frozenset({"L1"}): 0,
    frozenset({"L2"}): 0,
    frozenset({"X"}): 0,
    frozenset({"L0", "L1"}): 0,
    frozenset({"L0", "L2"}): 0,
    frozenset({"L1", "L2"}): 0,
    frozenset({"L0", "X"}): 1,
    frozenset({"L1", "X"}): 0,
    frozenset({"L2", "X"}): 0,
    frozenset({"L0", "L1", "L2"}): 0,
    frozenset({"L0", "L1", "X"}): 2,
    frozenset({"L0", "L2", "X"}): 1,
    frozenset({"L1", "L2", "X"}): 0,
    frozenset({"L0", "L1", "L2", "X"}): 3,
}


def test_criterion_4_decodability_truth_table():
    with criterion(4, "exhaustive 16-subset decodability table"):
        assert len(DECODE_TABLE) == 16
        for subset, expected in DECODE_TABLE.items():
            state = DestinationState()
            for token in subset:
                layer = None if token == "X" else int(token[1:])
                ingest(Payload(PayloadId("src", 5, layer), 100, 0, 1000), state)
            assert decodable_quality(5, "src", state) == expected, f"subset {sorted(subset)}"


# -- 5. adaptation rule table ---------------------------------------------------------------

def _expected_plan(current: int, pattern: str, max_layers: int) -> int:
    # The decision table, spelled out independently of the implementation:
    # every probe acknowledged -> one more layer (capped); none -> halve
    # (floor, min 1); a mix -> grow in the lower half of the range, shrink
    # (ceil halve) in the upper half.
    if pattern == "all":
        return min(current + 1, max_layers)
    if pattern == "none":
        return max(1, current // 2)
    if current <= max_layers / 2:
        return min(current + 1, max_layers)
    return max(1, math.ceil(current / 2))


def _probe_history(layers_per_segment: int = 1) -> list[SegmentRecord]:
    cfg = AdaptationConfig()
    history = []
    for i, lookback in enumerate(cfg.lookbacks):
        seg = len(cfg.lookbacks) - 1 - i
        ids = tuple(
            [PayloadId("s", seg, k) for k in range(layers_per_segment)]
            + [PayloadId("s", seg, None)]
        )
        history.append(SegmentRecord(seg, 100_000 - lookback - 10, layers_per_segment, ids))
    history.sort(key=lambda r: r.transmitted_at)
    return history


def test_criterion_5_adaptation_rule_table():
    with criterion(5, "adaptation table over current x pattern x max_layers"):
        history = _probe_history()
        acks = {
            "all": Ack("d", 1, frozenset(p for r in history for p in r.payload_ids)),
            "none": Ack("d", 1, frozenset()),
            "mixed": Ack("d", 1, frozenset(history[0].payload_ids)),
        }
        for max_layers in (4, 8):
            cfg = AdaptationConfig(max_layers=max_layers)
            for current in range(1, max_layers + 1):
                for pattern, ack in acks.items():
                    planned = plan_layers(history, ack, 100_000, current, cfg)
                    assert planned == _expected_plan(current, pattern, max_layers), (
                        f"current={current} pattern={pattern} max={max_layers}"
                    )
                    assert 1 <= planned <= max_layers


# -- 6. resilience to removing top-contact nodes -------------------------------------------

def _figure_scenario(trace, ttl, mode, seed) -> Scenario:
    return Scenario(
        trace=tuple(trace),
        source="n00",
        destination="n01",
        ttl=ttl,
        bandwidth_bytes_per_sec=3_000_000,
        duration=TWO_WEEKS,
        adaptation=AdaptationConfig(segment_period=7200),
        mode=mode,
        seed=seed,
        resolution="low",
    )


def _campus_trace(seed: int):
    return generate_synthetic_trace(
        nodes=15,
        duration=TWO_WEEKS,
        mean_intercontact=172_800,
        mean_contact_duration=120,
        seed=seed,
        excluded_pairs=[("n00", "n01")],
    )


def test_criterion_6_adaptive_beats_fixed_under_node_removal():
    with criterion(6, "adaptive >= fixed(high) under removal, gap non-decreasing"):
        started = time.monotonic()
        seeds = range(10)
        traces = {seed: _campus_trace(seed) for seed in seeds}
        for seed in seeds:
            relays = {n: c for n, c in contact_counts(traces[seed]).items()
                      if n not in ("n00", "n01")}
            assert min(relays.values()) >= 20  # deployment-scale contact density
        gaps = []
        for removed in (0, 1, 2, 4):
            per_mode = {}
            for mode in (AdaptiveSvc(), FixedNonSvc("high")):
                results = []
                for seed in seeds:
                    trace = remove_top_nodes(traces[seed], removed, {"n00", "n01"})
                    results.append(
                        run(_figure_scenario(trace, 172_800, mode, seed)).delivered_base
                    )
                per_mode[mode.label] = statistics.median(results)
            gap = per_mode["adaptive"] - per_mode["fixed:high"]
            print(f"  removed={removed}: adaptive={per_mode['adaptive']} "
                  f"fixed:high={per_mode['fixed:high']} gap={gap}")
            assert per_mode["adaptive"] >= per_mode["fixed:high"]
            gaps.append(gap)
        assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))
        elapsed = time.monotonic() - started
        print(f"  (removal sweep in {elapsed:.1f}s)")
        assert elapsed < 300.0


# -- 7. TTL monotonicity ----------------------------------------------------------------------

def test_criterion_7_delivery_monotone_in_ttl():
    with criterion(7, "delivered_base non-decreasing in TTL (6h/12h/24h/48h)"):
        trace = _campus_trace(seed=0)
        for mode in (AdaptiveSvc(), FixedNonSvc("high")):
            series = [
                run(_figure_scenario(trace, ttl, mode, 0)).delivered_base
                for ttl in (21_600, 43_200, 86_400, 172_800)
            ]
            print(f"  {mode.label}: {series}")
            assert series == sorted(series)


# -- 8. determinism of the sweep front end ----------------------------------------------------

SWEEP_CONFIG = """
duration = 40000
bandwidth = 250000
trace.synthetic.nodes = 6
trace.synthetic.mean_intercontact = 2000
trace.synthetic.mean_contact_duration = 90
adaptation.segment_period = 1200
sizes.base_bytes_low = 60000
sizes.extraction_info_bytes = 600
sweep.ttl_values = 4000,12000
sweep.removal_counts = 0,1
sweep.modes = adaptive,fixed:low
sweep.seeds = 0,1
"""


def test_criterion_8_sweep_is_byte_identical(tmp_path):
    with criterion(8, "repeated sweep produces byte-identical summary.csv"):
        config = tmp_path / "exp.conf"
        config.write_text(SWEEP_CONFIG)
        first, second = tmp_path / "one", tmp_path / "two"
        assert cli_main(["sweep", "--config", str(config), "--out", str(first)]) == 0
        assert cli_main(["sweep", "--config", str(config), "--out", str(second)]) == 0
        assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
        rows = (first / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2 * 2  # header + full cross product


# -- 9. five-minute reconnection suppression ---------------------------------------------------

def _cycling_trace(cycles: int) -> str:
    lines = []
    for k in range(cycles):
        lines.append(f"{120 * k} CONN a b up")
        lines.append(f"{120 * k + 60} CONN a b down")
    return "\n".join(lines)


def _suppression_sim(seed_big_payload: bool) -> Simulator:
    cycles = 20
    scenario = Scenario(
        trace=tuple(parse_trace(_cycling_trace(cycles))),
        source="a",
        destination="b",
        ttl=1_000_000,
        bandwidth_bytes_per_sec=1_000_000,
        duration=120 * cycles,
        adaptation=AdaptationConfig(segment_period=10_000_000),
    )
    sim = Simulator(scenario, check_invariants=True)
    if seed_big_payload:
        # needs 100 s on a 60 s contact: every connection dies mid-transfer
        sim.seed_payload(
            Payload(PayloadId("a", 0, 0), 100_000_000, 0, 1_000_000),
            RelayMetadata(8, ("a",)),
        )
    return sim


def test_criterion_9_five_minute_suppression():
    with criterion(9, "graceful contacts suppress reconnection; abrupt do not"):
        connection_times: list[float] = []

        def watch(sim, kind, when, data):
            if kind == "up" and sim.contacts_used > len(connection_times):
                connection_times.append(when)

        graceful = _suppression_sim(seed_big_payload=False)
        graceful.on_event = watch
        graceful.run()
        # 20 ups every 120 s, graceful completions: connects at 0, 360, 720, ...
        assert connection_times == [0.0, 360.0, 720.0, 1080.0, 1440.0, 1800.0, 2160.0]
        assert all(b - a >= 300 for a, b in zip(connection_times, connection_times[1:]))

        abrupt = _suppression_sim(seed_big_payload=True)
        abrupt.run()
        assert abrupt.contacts_used == 20  # every single up reconnects
