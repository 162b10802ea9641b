"""Differential oracle: the program against the frozen reference copy.

``perfbench/reference/oppvid/`` is the original program, loaded read-only as a
second package, ``oppvid_ref``. Every change to the event loop since must give
the same run, so both copies simulate the same drawn world, checked, and the
test compares their ``RunMetrics`` and the world each leaves behind: every
node's graceful-contact stamps and ACK, every store's (id, copy count) pairs,
and the non-zero lost-copy ledger. The draws put event times on a coarse
grid and use bandwidths up to 1e18 B/s, so that events and message arrivals
tie, and use tiny layers and copy budgets so that contacts overlap and move
payloads. A second family is long and sparse at 1 B/s, with many contacts
with the destination that overlap another handshake of the same relay, so
that ACKs arrive while other messages are in the air. The hand-made worlds
after them hold the one-step contact's guard at its equal-time edges and at
the edge of its own two nodes, the store changes an INVENTORY must show, and
the expiry floor's three edges.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oppvid

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "oppvid"


def _load_reference():
    if "oppvid_ref" in sys.modules:
        return sys.modules["oppvid_ref"]
    spec = importlib.util.spec_from_file_location(
        "oppvid_ref", REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["oppvid_ref"] = module
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the frozen copy's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


oppvid_ref = _load_reference()


@dataclasses.dataclass(frozen=True)
class World:
    """One run's inputs in plain values, buildable by either copy."""

    contacts: tuple[tuple[float, str, str, str], ...]  # (time, node, node, "up" | "down")
    bandwidth: float
    duration: int
    ttl: int = 3000
    ack_period: int = 300
    copies: int = 8
    segment_period: int = 10_000_000
    lookbacks: tuple[int, ...] = (21_600, 43_200, 86_400)
    initial_layers: int = 1
    mode: str = "adaptive"
    base_bytes: int = 30_000
    enhancement_ratio: float = 0.6
    extraction_bytes: int = 400


def build(pkg, world: World):
    trace = tuple(pkg.trace.ContactEvent(float(t), pkg.trace.ContactKind(kind), a, b)
                  for t, a, b, kind in world.contacts)
    return pkg.sim.Scenario(
        trace=trace,
        source="n00",
        destination="n01",
        ttl=world.ttl,
        bandwidth_bytes_per_sec=world.bandwidth,
        duration=world.duration,
        adaptation=pkg.adaptation.AdaptationConfig(
            lookbacks=world.lookbacks,
            initial_layers=world.initial_layers,
            initial_copy_count=world.copies,
            segment_period=world.segment_period,
        ),
        mode=pkg.sim.parse_mode(world.mode),
        ack_period=world.ack_period,
        sizes=pkg.adaptation.LayerSizeModel(world.base_bytes, world.enhancement_ratio, world.extraction_bytes),
    )


def outcome(pkg, world: World):
    """The run's metrics and end-of-run world in plain values, or the error it raised."""
    sim = pkg.sim.Simulator(build(pkg, world), check_invariants=True)
    try:
        metrics = sim.run()
    except pkg.sim.InvariantViolationError as exc:
        return ("raised", str(exc))
    return dict(
        metrics=dataclasses.astuple(metrics),
        recents={n: dict(getattr(r, "_last", r)) for n, r in sim.recents.items()},
        acks={n: (a.timestamp, sorted(p.canonical for p in a.delivered_ids))
              for n, a in sim.node_ack.items()},
        stores={n: sorted((p.canonical, e.meta.copy_count) for p, e in s._entries.items())
                for n, s in sim.stores.items()},
        lost={p.canonical: n for p, n in sim.lost_copies.items() if n},
    )


def assert_same_run(world: World):
    ours = outcome(oppvid, world)
    assert ours == outcome(oppvid_ref, world)
    return ours


@st.composite
def worlds(draw) -> World:
    nodes = draw(st.integers(3, 7))
    names = [f"n{i:02d}" for i in range(nodes)]
    grid = draw(st.sampled_from([5, 30, 120]))
    duration = grid * draw(st.sampled_from([20, 60]))
    # Both endpoints must meet someone.
    pairs = [(0, draw(st.integers(1, nodes - 1))),
             (1, draw(st.sampled_from([0] + list(range(2, nodes)))))]
    pairs += draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
                           .filter(lambda p: p[0] != p[1]), min_size=4, max_size=30))
    order = draw(st.permutations(range(len(pairs))))
    cursor: dict[tuple[str, str], int] = {}
    contacts = []
    for i in order:
        a, b = sorted((names[pairs[i][0]], names[pairs[i][1]]))
        # A gap of 0 after a contact of the same pair is a back-to-back one.
        up = cursor.get((a, b), 0) + grid * draw(st.integers(0, 6))
        down = up + grid * draw(st.integers(1, 12))
        cursor[(a, b)] = down
        contacts += [(up, a, b, "up"), (down, a, b, "down")]
    return World(
        contacts=tuple(contacts),
        bandwidth=draw(st.sampled_from([1.0, 1e18, 7.0, 100.0, 3000.0, 250_000.0, 1e12])),
        duration=duration,
        ttl=draw(st.sampled_from([3000, 100_000, 400, 60, 5])),
        ack_period=draw(st.integers(1, 300)),
        copies=draw(st.sampled_from([8, 2, 3, 1])),
        segment_period=draw(st.sampled_from([grid, 3 * grid, 300])),
        lookbacks=draw(st.sampled_from([(60, 120, 240), (300, 600, 1200), (21_600, 43_200, 86_400)])),
        initial_layers=draw(st.integers(1, 4)),
        mode=draw(st.sampled_from(["adaptive", "fixed:low", "fixed:high"])),
        base_bytes=draw(st.sampled_from([2, 2, 50, 3000, 30_000])),
        enhancement_ratio=draw(st.sampled_from([0.6, 1.0])),
        extraction_bytes=draw(st.sampled_from([1, 400])),
    )


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_program_runs_every_drawn_world_as_the_reference_does(world):
    assert_same_run(world)


@st.composite
def slow_worlds(draw) -> World:
    """Long, sparse worlds at 1 B/s. The source meets relays often, and a
    relay often meets the destination up to three grid steps after another
    contact of its own begins, so the destination's ACK can reach it while
    that contact's handshake is still in the air."""
    nodes = draw(st.integers(3, 6))
    names = [f"n{i:02d}" for i in range(nodes)]
    grid, steps = 30, draw(st.sampled_from([240, 400]))
    cursor: dict[tuple[str, str], int] = {}
    contacts = []

    def meet(x: int, y: int, at: int) -> None:
        a, b = sorted((names[x], names[y]))
        up = max(cursor.get((a, b), 0), at)
        cursor[(a, b)] = up + grid * draw(st.integers(3, 12))
        contacts.extend([(up, a, b, "up"), (cursor[(a, b)], a, b, "down")])

    meet(0, 1, grid * draw(st.integers(0, steps // 4)))
    for _ in range(draw(st.integers(10, 60))):
        at = grid * draw(st.integers(0, steps))
        x = draw(st.sampled_from([0, 0, 1] + list(range(2, nodes))))
        y = draw(st.sampled_from([n for n in range(nodes) if n != x]))
        meet(x, y, at)
        relay = y if x in (0, 1) else x
        if relay != 1 and draw(st.integers(0, 3)) > 0:
            meet(relay, 1, at + grid * draw(st.integers(0, 3)))
    return World(contacts=tuple(contacts), bandwidth=1.0, duration=grid * steps,
                 ttl=draw(st.sampled_from([100_000, 3000])), ack_period=draw(st.sampled_from([150, 300])),
                 copies=draw(st.sampled_from([8, 8, 2, 3])), segment_period=draw(st.sampled_from([1200, 2400])),
                 lookbacks=(60, 120, 240), initial_layers=draw(st.integers(1, 4)),
                 mode=draw(st.sampled_from(["fixed:low", "fixed:low", "adaptive"])),
                 base_bytes=2, enhancement_ratio=1.0, extraction_bytes=1)


@settings(max_examples=150, deadline=None)
@given(slow_worlds())
def test_program_runs_every_slow_sparse_world_as_the_reference_does(world):
    assert_same_run(world)


# Hand-made worlds for the one-step contact's guard. n01 (the destination)
# and n02 meet at 100 with nothing to move, at 7 B/s: each 21-byte empty ACK
# takes 3 s and each 8-byte empty INVENTORY 8/7 s, so both handshakes land at
# A2; both empty REQUESTs at C; n01's COMPLETE ends n02 at D (105.857...) and
# n02's COMPLETE ends n01 at E (106.428...).
A2 = (100 + 21 / 7) + 8 / 7
C = A2 + 8 / 7
D = C + 4 / 7
E = D + 4 / 7
SOURCE_ELSEWHERE = ((200, "n00", "n03", "up"), (300, "n00", "n03", "down"))


def quiet_contact(down: float, **fields) -> World:
    contacts = ((100, "n01", "n02", "up"), (down, "n01", "n02", "down")) + SOURCE_ELSEWHERE
    return World(**{"contacts": contacts, "bandwidth": 7.0, "duration": 400, "ack_period": 1000,
                    **fields})


def run_counting_messages(world: World, between: tuple[str, str] | None = None):
    """Our run of ``world`` and the number of message events it handled, or
    of those between the two nodes ``between``."""
    counted = []

    def hook(_sim, kind, _time, data):
        if kind == "msg" and (between is None or {data[1], data[2]} == set(between)):
            counted.append(data)

    sim = oppvid.sim.Simulator(build(oppvid, world), check_invariants=True, on_event=hook)
    sim.run()
    return sim, len(counted)


def test_quiet_contact_ending_with_its_own_link_down_is_settled_in_one_step():
    # Messages go first at equal times, so the link-down at E comes after the
    # last COMPLETE and both sides end gracefully.
    assert (D, E) == (pytest.approx(105.857142857), pytest.approx(106.428571428))
    sim, messages = run_counting_messages(quiet_contact(E))
    assert messages == 0
    assert sim.recents["n02"] == {"n01": D}
    assert sim.recents["n01"] == {"n02": E}
    assert_same_run(quiet_contact(E))


def test_quiet_contact_cut_just_before_its_end_runs_on_the_engines():
    down = math.nextafter(E, 0)
    sim, messages = run_counting_messages(quiet_contact(down))
    assert messages > 0
    assert sim.recents["n02"] == {"n01": D}
    assert sim.recents["n01"] == {}  # its COMPLETE was still in the air: an abrupt end
    assert_same_run(quiet_contact(down))


def source_contact(**fields) -> World:
    """The quiet contact with the source n00 in n01's place; n01 meets n03 later."""
    return World(contacts=((100, "n00", "n02", "up"), (200, "n00", "n02", "down"),
                           (300, "n01", "n03", "up"), (350, "n01", "n03", "down")),
                 bandwidth=7.0, duration=400, ack_period=1000, **fields)


# A segment tick touches only the source's store, so it sends a contact to
# the engines only where the source is one of its nodes; an ACK tick can sweep
# any store, so it does wherever the destination is.
@pytest.mark.parametrize("world, initiator", [(source_contact(segment_period=105), "n00"),
                                              (quiet_contact(200, ack_period=105), "n01")],
                         ids=["segment", "ack"])
def test_a_tick_inside_the_handshake_sends_the_contact_to_the_engines(world, initiator):
    sim, messages = run_counting_messages(world, (initiator, "n02"))
    assert messages >= 8
    assert sim.recents["n02"] == {initiator: D} and sim.recents[initiator] == {"n02": E}
    assert_same_run(world)


def test_a_segment_tick_at_a_source_elsewhere_leaves_the_contact_settled():
    # The segment made at 105 dies at 165 (TTL 60), and n00's link-up with
    # n03 at 200 sweeps it, so no contact moves a payload.
    world = quiet_contact(200, segment_period=105, ttl=60)
    sim, messages = run_counting_messages(world)
    assert messages == 0
    assert sim.recents["n02"] == {"n01": D} and sim.recents["n01"] == {"n02": E}
    assert_same_run(world)


# Hand-made worlds for the guard's reach. A handshake touches only its own two
# nodes, so another pair's link-up or message leaves it settled; an open
# connection, a link-up or an ACK tick that can change what either node sends
# or asks for sends it to the engines.
def test_two_disjoint_pairs_up_in_the_same_second_are_both_settled():
    world = World(contacts=((100, "n01", "n02", "up"), (200, "n01", "n02", "down"),
                            (100, "n03", "n04", "up"), (150, "n03", "n04", "down")) + SOURCE_ELSEWHERE,
                  bandwidth=7.0, duration=400, ack_period=1000)
    sim, messages = run_counting_messages(world)
    assert messages == 0
    assert sim.recents["n02"] == {"n01": D} and sim.recents["n04"] == {"n03": D}
    assert_same_run(world)


def test_a_quiet_contact_beside_another_pairs_payload_in_flight_is_settled():
    # n00 sends n04 the first segment's one 2-byte layer, in flight from 99
    # to 107.86; n01 and n02 meet at 100 with nothing to move.
    world = World(contacts=((90, "n00", "n04", "up"), (150, "n00", "n04", "down"),
                            (100, "n01", "n02", "up"), (200, "n01", "n02", "down")),
                  bandwidth=7.0, duration=400, ack_period=1000, segment_period=50,
                  mode="fixed:low", base_bytes=2)
    in_flight = []

    def hook(sim, kind, _time, data):
        if kind == "up" and data == ("n01", "n02"):
            in_flight.extend(type(event[4][3]).__name__ for event in sim._heap)

    oppvid.sim.Simulator(build(oppvid, world), check_invariants=True, on_event=hook).run()
    assert in_flight == ["PayloadMsg"]
    sim, messages = run_counting_messages(world, ("n01", "n02"))
    assert messages == 0 and sim.relay_transmissions == 1
    assert sim.recents["n02"] == {"n01": D}
    assert_same_run(world)


def slow_world(*contacts, **fields) -> World:
    """At 1 B/s, with one 2-byte layer made at 1000 (P)."""
    return World(contacts=contacts, **{"bandwidth": 1.0, "duration": 2000, "ack_period": 1200,
                                       "segment_period": 1000, "mode": "fixed:low", "base_bytes": 2,
                                       **fields})


def test_a_quiet_contact_of_a_node_with_an_open_connection_runs_on_the_engines():
    # n00 delivers P to n01 at 1010-1300 and keeps it; the tick at 1200
    # acknowledges it. n00 meets n02 at 1500, and its INVENTORY, listing P,
    # lands at 1544. n01 meets n02 at 1530, a quiet contact, but n01's ACK
    # lands only at 1562, so n02 asks n00 for P. Settling at 1530 would hand
    # n02 the ACK early, and P would stay with n00.
    world = slow_world((1010, "n00", "n01", "up"), (1300, "n00", "n01", "down"),
                       (1500, "n00", "n02", "up"), (1700, "n00", "n02", "down"),
                       (1530, "n01", "n02", "up"), (1700, "n01", "n02", "down"))
    sim, messages = run_counting_messages(world, ("n01", "n02"))
    assert messages >= 8 and sim.relay_transmissions == 2
    assert_same_run(world)


def test_a_link_up_of_one_node_inside_the_handshake_runs_it_on_the_engines():
    # n00 delivers P to n01 by 1135 and relays it to n02 at 1300. n01, whose
    # ACK lists P from the tick at 1200, meets n02 at 1600, a quiet contact;
    # n02 meets n03 at 1610. n01's ACK purges P at n02 only at 1632, so n02's
    # INVENTORY to n03 lists P and n03 asks for it. Settling at 1600 would
    # purge P first, and n02 and n03 would have nothing to ask for.
    world = slow_world((1010, "n00", "n01", "up"), (1300, "n00", "n01", "down"),
                       (1300, "n00", "n02", "up"), (1500, "n00", "n02", "down"),
                       (1600, "n01", "n02", "up"), (1700, "n01", "n02", "down"),
                       (1610, "n02", "n03", "up"), (1700, "n02", "n03", "down"))
    _, messages = run_counting_messages(world, ("n01", "n02"))
    assert messages >= 8
    assert assert_same_run(world)["recents"]["n03"] == {"n02": 1610 + 21 + 23 + 19 + 4}


def test_an_ack_tick_sweeping_both_sides_inside_the_handshake_runs_it_on_the_engines():
    # P lives to 1420. n00 relays it to n02 and then to n03, so both hold it
    # when they meet at 1400, a quiet contact away from the destination. The
    # tick at 1440 sweeps P from both before either INVENTORY, listing P,
    # lands at 1444, so each asks the other for it.
    world = slow_world((1010, "n00", "n02", "up"), (1190, "n00", "n02", "down"),
                       (1200, "n00", "n03", "up"), (1390, "n00", "n03", "down"),
                       (1400, "n02", "n03", "up"), (1500, "n02", "n03", "down"),
                       (1700, "n01", "n04", "up"), (1800, "n01", "n04", "down"),
                       ttl=420, ack_period=720)
    _, messages = run_counting_messages(world, ("n02", "n03"))
    assert messages >= 8
    ours = assert_same_run(world)
    assert ours["recents"]["n03"]["n02"] == 1400 + 21 + 23 + 19 + 4
    assert ours["lost"] == {"n00_s0_L0": 8}


def payload_contact(down: float) -> World:
    """n00 meets n02 at 60, after the source's first segment (one 2-byte layer) is out."""
    return World(contacts=((60, "n00", "n02", "up"), (down, "n00", "n02", "down"),
                           (95, "n01", "n02", "up"), (99, "n01", "n02", "down")),
                 bandwidth=7.0, duration=99, ack_period=1000, segment_period=50,
                 mode="fixed:low", base_bytes=2)


def test_a_contact_that_wants_a_payload_runs_on_the_engines():
    sim, messages = run_counting_messages(payload_contact(90))
    assert messages > 8
    assert sim.relay_transmissions == 1
    assert assert_same_run(payload_contact(90))["stores"]["n02"] == [("n00_s0_L0", 4)]


def test_a_contact_whose_last_message_lands_on_its_link_down_ends_gracefully():
    # Messages go first at equal times, so n02's COMPLETE, the contact's last
    # message, still counts when the link goes down as it lands.
    end = run_counting_messages(payload_contact(90))[0].recents["n00"]["n02"]
    sim, _ = run_counting_messages(payload_contact(end))
    assert sim.recents["n00"] == {"n02": end}
    assert_same_run(payload_contact(end))


def test_a_message_in_flight_at_the_responder_sends_the_contact_to_the_engines():
    # At 1 B/s. n00 delivers its payload P to n01 at 1010-1300 and keeps its
    # copies; the ACK tick at 1200 acknowledges P, and n02 takes that ACK
    # from n01 at 1300. n00 meets n03 at 1500: n00's INVENTORY, listing P,
    # reaches n03 at 1544. n02 meets n03 at 1530, a quiet contact, but its
    # ACK reaches n03 only at 1562. Until then n03 holds the old ACK, so it
    # asks n00 for P, and P is sent. Settling n02-n03 at 1530 would hand n03
    # the ACK early and nothing would be sent.
    world = World(contacts=((1010, "n00", "n01", "up"), (1300, "n00", "n01", "down"),
                            (1300, "n01", "n02", "up"), (1400, "n01", "n02", "down"),
                            (1500, "n00", "n03", "up"), (1700, "n00", "n03", "down"),
                            (1530, "n02", "n03", "up"), (1700, "n02", "n03", "down")),
                  bandwidth=1.0, duration=2000, ack_period=1200, segment_period=1000,
                  mode="fixed:low", base_bytes=2)
    sim, _ = run_counting_messages(world)
    assert sim.relay_transmissions == 2  # n00 to n01, then n00 to n03
    assert sim.recents["n03"]["n02"] > 1530
    assert_same_run(world)


def test_a_payload_purged_by_an_ack_leaves_the_next_inventory():
    # At 1 B/s. n00 delivers P to n01 at 1010-1300 and keeps it; the ACK tick
    # at 1200 acknowledges P; n02 takes that ACK from n01 at 1300 and hands
    # it to n00 at 1500, which drops P. So n00's INVENTORY to n03 at 1700 is
    # empty, and a stale one listing P would end the contact later.
    world = World(contacts=((1010, "n00", "n01", "up"), (1300, "n00", "n01", "down"),
                            (1300, "n01", "n02", "up"), (1400, "n01", "n02", "down"),
                            (1500, "n00", "n02", "up"), (1600, "n00", "n02", "down"),
                            (1700, "n00", "n03", "up"), (1900, "n00", "n03", "down")),
                  bandwidth=1.0, duration=2000, ack_period=1200, segment_period=1000,
                  mode="fixed:low", base_bytes=2)
    ours = assert_same_run(world)
    assert ours["stores"]["n00"] == []
    # n00's ACK, listing P, takes 32 s and its empty INVENTORY 8 s; then come
    # the empty REQUESTs and the two COMPLETEs.
    assert ours["recents"]["n00"]["n03"] == 1700 + 32 + 8 + 8 + 4 + 4


def test_a_halved_copy_count_shows_in_the_next_inventory():
    # At 1 B/s, with a budget of 2. n00 relays P to n02 at 1010 and keeps one
    # copy, so its INVENTORY to n03 at 1300 lists P at 1, which a relay does
    # not ask for: a quiet contact. n00's 23-byte INVENTORY lands at 1344,
    # after n03's at 1329; then come the empty REQUESTs and the COMPLETEs.
    world = World(contacts=((1010, "n00", "n02", "up"), (1200, "n00", "n02", "down"),
                            (1300, "n00", "n03", "up"), (1500, "n00", "n03", "down"),
                            (1600, "n01", "n02", "up"), (1700, "n01", "n02", "down")),
                  bandwidth=1.0, duration=2000, segment_period=1000, copies=2,
                  mode="fixed:low", base_bytes=2)
    ours = assert_same_run(world)
    assert ours["stores"]["n00"] == [("n00_s0_L0", 1)]
    assert ours["recents"]["n00"]["n03"] == 1300 + 21 + 23 + 8 + 4 + 4


# Hand-made worlds for the expiry floor, at 1 B/s with one 2-byte layer per
# segment. Every insert lowers the floor; an ACK tick that finds it passed
# sweeps what is due and makes it exact; a link-up sweeps its two stores
# only once it has passed.
def sweeps_of(world: World) -> list[tuple[float, str]]:
    """(time, node) of every store sweep in our run of ``world``."""
    seen: dict[str, float] = {}
    sweeps = []

    def hook(sim, _kind, time, _data):
        for node, store in sim.stores.items():
            if store.last_sweep_at != seen.get(node, 0.0):
                seen[node] = store.last_sweep_at
                sweeps.append((time, node))

    oppvid.sim.Simulator(build(oppvid, world), check_invariants=True, on_event=hook).run()
    return sweeps


def test_a_replica_stored_by_a_relay_transfer_is_swept_when_it_alone_is_due():
    # S0 (made at 1000) and P (at 2000) live 1450 s. n00 hands both to n01
    # by 2223; the tick at 2400 acknowledges them and n03 takes that ACK at
    # 2410. n00 meets n02 at 2500: the link-up sweeps the dead S0, and P
    # leaves for n02 at 2563. n03's ACK reaches n00 at 2583 and purges P
    # there, so the tick at 2600 finds no entry anywhere and lifts the floor
    # to infinity. P lands at n02 at 2625: that store alone must lower the
    # floor again, or the tick at 3600 would not sweep it.
    world = World(contacts=((2010, "n00", "n01", "up"), (2400, "n00", "n01", "down"),
                            (2410, "n01", "n03", "up"), (2500, "n01", "n03", "down"),
                            (2500, "n00", "n02", "up"), (2700, "n00", "n02", "down"),
                            (2540, "n00", "n03", "up"), (2700, "n00", "n03", "down")),
                  bandwidth=1.0, duration=3600, ttl=1450, ack_period=200, segment_period=1000,
                  mode="fixed:low", base_bytes=2)
    ours = assert_same_run(world)
    assert ours["stores"] == {"n00": [("n00_s2_L0", 8)], "n02": [], "n03": []}
    assert sweeps_of(world) == [(2500, "n00"), (3600, "n02")]


def test_a_stale_heap_head_below_the_earliest_expiry_sweeps_nothing():
    # S0 (made at 1000, dead after 2000) reaches n01 by 1135; the tick at
    # 1200 acknowledges it and n00 takes that ACK at 1500, which drops S0
    # but leaves its heap item. P is made at 2000 and lives to 3000. The
    # tick at 2400 finds the floor passed, but n00's true earliest expiry
    # is P's: nothing is swept there until the tick at 3600.
    world = World(contacts=((1010, "n00", "n01", "up"), (1300, "n00", "n01", "down"),
                            (1500, "n00", "n01", "up"), (1600, "n00", "n01", "down")),
                  bandwidth=1.0, duration=3600, ttl=1000, ack_period=600, segment_period=1000,
                  mode="fixed:low", base_bytes=2)
    ours = assert_same_run(world)
    assert ours["stores"]["n00"] == [("n00_s2_L0", 8)]
    assert sweeps_of(world) == [(3600, "n00")]


def test_a_link_up_between_two_ticks_sweeps_what_has_died_since_the_first():
    # S0 (made at 1000) dies after 1500, between the ticks at 1000 and 2000.
    # The link-up at 1700 sweeps it, so n00 offers n02 nothing and the
    # contact moves no payload.
    world = World(contacts=((1700, "n00", "n02", "up"), (1800, "n00", "n02", "down"),
                            (2050, "n01", "n02", "up"), (2100, "n01", "n02", "down")),
                  bandwidth=1.0, duration=2100, ttl=500, ack_period=1000, segment_period=1000,
                  mode="fixed:low", base_bytes=2)
    ours = assert_same_run(world)
    assert ours["metrics"][4] == 0  # relay_transmissions
    assert ours["lost"] == {"n00_s0_L0": 8}
    assert sweeps_of(world) == [(1700, "n00")]
