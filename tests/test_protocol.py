"""Pure-function and engine-level protocol tests.

The engine tests drive two ConnectionEngine instances over an in-memory
FIFO link (no simulator), applying store effects by hand, and check the
emission order, halving, graceful/abrupt termination, and gating rules.
"""
from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, strategies as st

from oppvid.model import Ack, PayloadId
from oppvid.protocol import (
    AcceptPayload,
    AckDestinationMismatch,
    AdoptAck,
    CommitRelay,
    Connected,
    ConnectionEngine,
    LinkDown,
    MessageReceived,
    Phase,
    SendMessage,
    TransferFinished,
    build_send_queue,
    compute_request_list,
    merge_ack,
    should_connect,
    split_copy_count,
)
from oppvid.store import NodeStore, StoredEntry
from oppvid.wire import AckMsg, CompleteMsg, InventoryMsg, PayloadMsg, RequestMsg

from conftest import meta, payload, pid


# -- split_copy_count ---------------------------------------------------------

def test_split_even():
    assert split_copy_count(8) == (4, 4)


def test_split_odd_sender_keeps_majority():
    assert split_copy_count(5) == (3, 2)


def test_split_boundary():
    assert split_copy_count(2) == (1, 1)


def test_split_below_two_rejected():
    with pytest.raises(ValueError):
        split_copy_count(1)


@given(st.integers(2, 10**6))
def test_split_conserves_and_stays_positive(n):
    keep, give = split_copy_count(n)
    assert keep + give == n
    assert keep >= 1 and give >= 1
    assert keep >= give


# -- should_connect -----------------------------------------------------------

def test_recent_graceful_contact_suppresses():
    recent = {"peer": 1000.0}
    assert should_connect("peer", 1200.0, recent) is False


def test_old_graceful_contact_allows():
    recent = {"peer": 1000.0}
    assert should_connect("peer", 1400.0, recent) is True


def test_unknown_peer_allows():
    assert should_connect("peer", 0.0, {}) is True


def test_exactly_five_minutes_allows():
    recent = {"peer": 0.0}
    assert should_connect("peer", 300.0, recent) is True


# -- merge_ack ----------------------------------------------------------------

def test_newer_remote_ack_adopted():
    local = Ack("d", 100, frozenset({pid(segment=1)}))
    remote = Ack("d", 200, frozenset({pid(segment=1), pid(segment=2)}))
    assert merge_ack(local, remote) == (remote, True)


def test_older_remote_ack_ignored():
    local = Ack("d", 200)
    remote = Ack("d", 100)
    assert merge_ack(local, remote) == (local, False)


def test_tie_keeps_local():
    local, remote = Ack("d", 100), Ack("d", 100, frozenset({pid()}))
    assert merge_ack(local, remote) == (local, False)


def test_mixed_destination_rejected():
    with pytest.raises(AckDestinationMismatch):
        merge_ack(Ack("d1", 1), Ack("d2", 2))


# -- compute_request_list -------------------------------------------------------

def test_request_is_set_difference():
    p1, p2 = pid(segment=1), pid(segment=2)
    remote = [(p1, 4), (p2, 2)]
    assert compute_request_list(remote, {p2}, frozenset(), False) == [p1]


def test_relay_skips_last_copy():
    assert compute_request_list([(pid(), 1)], set(), frozenset(), False) == []


def test_destination_requests_last_copy():
    assert compute_request_list([(pid(), 1)], set(), frozenset(), True) == [pid()]


def test_acked_ids_never_requested():
    p = pid()
    assert compute_request_list([(p, 4)], set(), frozenset({p}), True) == []


def test_request_mirrors_remote_order():
    p1, p2, p3 = pid(segment=1), pid(segment=2), pid(segment=3)
    remote = [(p3, 2), (p1, 5), (p2, 3)]
    assert compute_request_list(remote, set(), frozenset(), False) == [p3, p1, p2]


# -- build_send_queue -----------------------------------------------------------

def _view(**counts):
    return [(pid(segment=int(k[1:])), v) for k, v in counts.items()]


def test_queue_gates_last_copy_for_relay():
    view = _view(p1=4, p2=8, p3=1)
    requested = [p for p, _ in view]
    assert build_send_queue(requested, view, peer_is_destination=False) == [
        pid(segment=2), pid(segment=1)
    ]


def test_queue_includes_last_copy_for_destination():
    view = _view(p1=4, p2=8, p3=1)
    requested = [p for p, _ in view]
    assert build_send_queue(requested, view, peer_is_destination=True) == [
        pid(segment=2), pid(segment=1), pid(segment=3)
    ]


def test_all_single_copies_yield_empty_queue_for_relay():
    view = _view(p1=1, p2=1)
    assert build_send_queue([p for p, _ in view], view, peer_is_destination=False) == []


def test_queue_tie_broken_by_id():
    view = [(pid(segment=2), 4), (pid(segment=1), 4)]
    assert build_send_queue([p for p, _ in view], view, False) == [
        pid(segment=1), pid(segment=2)
    ]


# -- engine harness --------------------------------------------------------------

class FakeNode:
    """Minimal node context: a store (or destination intake) plus the current ack."""

    def __init__(self, node_id: str, destination_id: str):
        self.node_id = node_id
        self.destination_id = destination_id
        self.store = NodeStore()
        self.received: set[PayloadId] = set()
        self.ack = Ack.empty(destination_id)
        self.locked: set[PayloadId] = set()

    @property
    def is_destination(self) -> bool:
        return self.node_id == self.destination_id

    def current_ack(self) -> Ack:
        return self.ack

    def inventory(self):
        return [] if self.is_destination else self.store.inventory()

    def local_ids(self):
        return set(self.received) if self.is_destination else self.store.ids()

    def pending_inbound_ids(self):
        return set()

    def store_entry(self, p):
        return None if self.is_destination else self.store.get(p)

    def is_relay_locked(self, p):
        return p in self.locked


class Link:
    """Two engines joined by per-direction FIFO queues; effects applied eagerly."""

    def __init__(self, node_a: FakeNode, node_b: FakeNode, initiator: str):
        self.nodes = {node_a.node_id: node_a, node_b.node_id: node_b}
        self.engines = {
            n.node_id: ConnectionEngine(n, peer=other.node_id, is_initiator=n.node_id == initiator)
            for n, other in ((node_a, node_b), (node_b, node_a))
        }
        self.queues = {n: deque() for n in self.nodes}  # keyed by sender
        self.emitted = {n: [] for n in self.nodes}
        self.now = 0.0

    def connect(self):
        for node_id, engine in self.engines.items():
            self._apply(node_id, engine.step(Connected(engine.peer), self.now))

    def _apply(self, node_id: str, actions):
        node = self.nodes[node_id]
        for action in actions:
            if isinstance(action, SendMessage):
                self.emitted[node_id].append(action.msg)
                self.queues[node_id].append(action.msg)
            elif isinstance(action, AdoptAck):
                node.ack = action.ack
                if not node.is_destination:
                    node.store.apply_ack_entries(action.ack)
            elif isinstance(action, AcceptPayload):
                if node.is_destination:
                    node.received.add(action.payload.id)
                else:
                    node.store.insert(StoredEntry(action.payload, action.meta), self.now)
            elif isinstance(action, CommitRelay):
                if action.payload_id in node.store:
                    node.store.update_copy_count(action.payload_id, action.sender_keeps)

    def deliver_one(self) -> bool:
        """Move the oldest queued message (alternating fairness not needed)."""
        for sender in sorted(self.queues):
            if self.queues[sender]:
                msg = self.queues[sender].popleft()
                receiver = next(n for n in self.nodes if n != sender)
                self._apply(receiver, self.engines[receiver].step(MessageReceived(msg), self.now))
                if isinstance(msg, PayloadMsg):
                    self._apply(
                        sender,
                        self.engines[sender].step(TransferFinished(msg.payload.id), self.now),
                    )
                return True
        return False

    def pump(self):
        while self.deliver_one():
            pass


def _relay_pair(with_payloads=()) -> tuple[FakeNode, FakeNode, Link]:
    a = FakeNode("a", "zdest")
    b = FakeNode("b", "zdest")
    for p, m in with_payloads:
        a.store.insert(StoredEntry(p, m), 0)
    link = Link(a, b, initiator="a")
    return a, b, link


def _message_kinds(msgs):
    return [type(m).__name__ for m in msgs]


def test_handshake_emits_ack_then_inventory():
    _, _, link = _relay_pair()
    link.connect()
    assert _message_kinds(link.emitted["a"]) == ["AckMsg", "InventoryMsg"]
    assert _message_kinds(link.emitted["b"]) == ["AckMsg", "InventoryMsg"]


def test_emission_order_full_exchange():
    p = payload(source="a", size=500)
    _, _, link = _relay_pair([(p, meta(8, ("a",)))])
    link.connect()
    link.pump()
    assert _message_kinds(link.emitted["a"]) == [
        "AckMsg", "InventoryMsg", "RequestMsg", "PayloadMsg", "CompleteMsg"
    ]
    assert _message_kinds(link.emitted["b"]) == [
        "AckMsg", "InventoryMsg", "RequestMsg", "CompleteMsg"
    ]


def test_both_sides_graceful_after_complete_exchange():
    a, b, link = _relay_pair()
    link.connect()
    link.pump()
    for engine in link.engines.values():
        assert engine.state.phase is Phase.DONE
        assert engine.state.graceful
        assert engine.state.sent_complete and engine.state.received_complete


def test_relay_halves_copy_count_on_both_sides():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    link.connect()
    link.pump()
    assert a.store.get(p.id).meta.copy_count == 4
    assert b.store.get(p.id).meta.copy_count == 4


def test_odd_copy_count_sender_keeps_ceiling():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(5, ("a",)))])
    link.connect()
    link.pump()
    assert a.store.get(p.id).meta.copy_count == 3
    assert b.store.get(p.id).meta.copy_count == 2


def test_traversed_nodes_extended_once():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    link.connect()
    link.pump()
    assert b.store.get(p.id).meta.traversed_nodes == ("a", "b")


def test_delivery_to_destination_keeps_sender_copy():
    dest = FakeNode("zdest", "zdest")
    a = FakeNode("a", "zdest")
    p = payload(source="a", size=500)
    a.store.insert(StoredEntry(p, meta(1, ("a",))), 0)
    link = Link(a, dest, initiator="a")
    link.connect()
    link.pump()
    assert p.id in dest.received
    assert a.store.get(p.id).meta.copy_count == 1  # deletion waits for the ack


def test_higher_copy_delivery_keeps_sender_copy_too():
    dest = FakeNode("zdest", "zdest")
    a = FakeNode("a", "zdest")
    p = payload(source="a", size=500)
    a.store.insert(StoredEntry(p, meta(4, ("a",))), 0)
    link = Link(a, dest, initiator="a")
    link.connect()
    link.pump()
    assert a.store.get(p.id).meta.copy_count == 4


def test_last_copy_not_offered_to_relay():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(1, ("a",)))])
    link.connect()
    link.pump()
    assert p.id not in b.store
    assert a.store.get(p.id).meta.copy_count == 1


def test_no_transfer_when_receiver_already_stores_it():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    b.store.insert(StoredEntry(p, meta(2, ("a", "b"))), 0)
    link.connect()
    link.pump()
    assert all(not isinstance(m, PayloadMsg) for m in link.emitted["a"])
    assert b.store.get(p.id).meta.copy_count == 2


def test_no_transfer_when_receiver_saw_it_acknowledged():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    b.ack = Ack("zdest", 50, frozenset({p.id}))
    link.connect()
    link.pump()
    assert all(not isinstance(m, PayloadMsg) for m in link.emitted["a"])


def test_newer_ack_adopted_and_applied_during_handshake():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    b.ack = Ack("zdest", 50, frozenset({p.id}))
    link.connect()
    link.pump()
    assert a.ack.timestamp == 50
    assert p.id not in a.store  # deleted when the newer ack arrived


def test_link_down_is_abrupt_and_discards_nothing_sent():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    link.connect()
    # handshake only; payload still queued server-side
    for _ in range(4):
        link.deliver_one()
    for engine in link.engines.values():
        engine.step(LinkDown(), 1.0)
        assert engine.state.phase is Phase.DONE
        assert not engine.state.graceful


def test_out_of_phase_payload_is_treated_as_abrupt():
    a, b, link = _relay_pair()
    engine = link.engines["b"]
    engine.step(Connected("a"), 0.0)
    msg = PayloadMsg(payload(source="a"), meta(4, ("a", "b")))
    actions = engine.step(MessageReceived(msg), 0.0)
    assert actions == []
    assert engine.state.phase is Phase.DONE and not engine.state.graceful


def test_locked_payload_is_skipped_not_sent():
    p = payload(source="a", size=500)
    a, b, link = _relay_pair([(p, meta(8, ("a",)))])
    a.locked.add(p.id)  # mid-flight on another connection
    link.connect()
    link.pump()
    assert all(not isinstance(m, PayloadMsg) for m in link.emitted["a"])
    for engine in link.engines.values():
        assert engine.state.graceful


def test_request_always_emitted_even_when_empty():
    a, b, link = _relay_pair()
    link.connect()
    link.pump()
    for side in ("a", "b"):
        kinds = _message_kinds(link.emitted[side])
        assert kinds.count("RequestMsg") == 1
    req = next(m for m in link.emitted["a"] if isinstance(m, RequestMsg))
    assert req.ids == ()
