"""Per-node connection engine: handshake, request exchange, relay transfers.

One engine instance drives one side of one connection. It is event-driven
and side-effect free: ``step(event, now)`` returns actions (messages to send,
store effects) that the owner applies. Reads of node state go through the
``NodeView`` the engine was constructed with.

Within a connection each side emits, in order: ACK, INVENTORY, REQUEST,
zero or more PAYLOADs, COMPLETE. A REQUEST is always sent, with an empty id
list when nothing is wanted: with concurrent connections a peer cannot know
that no request is coming, so the empty request is the explicit signal that
lets the sending turn start. The initiator sends its payloads first; the
responder's turn starts when the initiator's COMPLETE arrives. A connection
ends gracefully only when both sides have sent and received COMPLETE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol

from .model import Ack, Payload, PayloadId, RelayMetadata
from .store import StoredEntry
from .wire import (
    AckMsg,
    CompleteMsg,
    ControlMessage,
    InventoryMsg,
    PayloadMsg,
    RequestMsg,
)

# Reconnection to a peer is refused for this long after a graceful completion.
RECONNECT_SUPPRESSION_SECONDS = 300


class AckDestinationMismatch(ValueError):
    """Two acknowledgments claim different destinations."""


def should_connect(peer: str, now: float, recent: dict[str, float]) -> bool:
    """False only while the suppression window after a graceful contact is open.
    ``recent`` maps peers to their last graceful completion (abrupt ends never count)."""
    last = recent.get(peer)
    return last is None or now - last >= RECONNECT_SUPPRESSION_SECONDS


def merge_ack(local: Ack, remote: Ack) -> tuple[Ack, bool]:
    """Keep the strictly newer acknowledgment; ties keep the local one."""
    if local.destination != remote.destination:
        raise AckDestinationMismatch(
            f"acks from different destinations: {local.destination!r} vs {remote.destination!r}"
        )
    if remote.timestamp > local.timestamp:
        return remote, True
    return local, False


def compute_request_list(
    remote_inventory: Iterable[tuple[PayloadId, int]],
    local_ids: set[PayloadId],
    acked: frozenset[PayloadId] | set[PayloadId],
    am_destination: bool,
) -> list[PayloadId]:
    """Ids worth pulling from the peer, in the peer's inventory order.

    Copies at L=1 can only be handed to the destination, so a relay does not
    request them.
    """
    return [
        pid
        for pid, copy_count in remote_inventory
        if pid not in local_ids
        and pid not in acked
        and (am_destination or copy_count != 1)
    ]


def build_send_queue(
    requested: Iterable[PayloadId],
    store_view: list[tuple[PayloadId, int]],
    peer_is_destination: bool,
) -> list[PayloadId]:
    """Transmission order for the peer's request: copy count descending, id ascending."""
    counts = dict(store_view)
    eligible = [
        pid
        for pid in requested
        if pid in counts and (peer_is_destination or counts[pid] >= 2)
    ]
    eligible.sort(key=lambda pid: (-counts[pid], pid.canonical))
    return eligible


def split_copy_count(copy_count: int) -> tuple[int, int]:
    """Halve a replica budget on relay: (sender keeps, receiver gets)."""
    if copy_count < 2:
        raise ValueError(f"cannot split a copy count below 2, got {copy_count}")
    return math.ceil(copy_count / 2), copy_count // 2


class Phase(Enum):
    DISCOVERY = "discovery"
    CONNECTED = "connected"
    TRANSFERRING = "transferring"
    DONE = "done"


class ConnectionState:
    """One engine's progress through its connection, read on every step."""

    __slots__ = ("phase", "sent_complete", "received_complete", "send_queue", "graceful")

    def __init__(self):
        self.phase = Phase.DISCOVERY
        self.sent_complete = self.received_complete = self.graceful = False
        self.send_queue: list[PayloadId] = []


# -- events -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Connected:
    peer: str


@dataclass(frozen=True, slots=True)
class MessageReceived:
    msg: ControlMessage


@dataclass(frozen=True, slots=True)
class TransferFinished:
    payload_id: PayloadId


@dataclass(frozen=True, slots=True)
class LinkDown:
    pass


Event = Connected | MessageReceived | TransferFinished | LinkDown


# -- actions ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SendMessage:
    msg: ControlMessage


@dataclass(frozen=True, slots=True)
class AdoptAck:
    ack: Ack


@dataclass(frozen=True, slots=True)
class AcceptPayload:
    payload: Payload
    meta: RelayMetadata


@dataclass(frozen=True, slots=True)
class CommitRelay:
    """Sender keeps its halved share after a successful relay transfer."""

    payload_id: PayloadId
    sender_keeps: int


Action = SendMessage | AdoptAck | AcceptPayload | CommitRelay


class NodeView(Protocol):
    """Read access to the owning node's state, supplied by the simulator or test."""

    node_id: str
    destination_id: str

    def current_ack(self) -> Ack: ...
    def inventory(self) -> list[tuple[PayloadId, int]]: ...
    def local_ids(self) -> set[PayloadId]: ...
    def pending_inbound_ids(self) -> set[PayloadId]: ...
    def store_entry(self, pid: PayloadId) -> StoredEntry | None: ...
    def is_relay_locked(self, pid: PayloadId) -> bool: ...


class ProtocolViolation(Exception):
    """Out-of-phase message; ``step`` ends the connection abruptly and keeps it
    on the engine as ``violation`` for the owner to inspect."""


class ConnectionEngine:
    """State machine for one side of one connection."""

    def __init__(self, view: NodeView, peer: str, is_initiator: bool):
        self.view = view
        self.peer = peer
        self.is_initiator = is_initiator
        self.state = ConnectionState()
        self._got_peer_ack = False
        self._got_peer_inventory = False
        self._got_peer_request = False
        self._inflight: tuple[PayloadId, int] | None = None
        self.violation: ProtocolViolation | None = None
        self.peer_is_destination = peer == view.destination_id
        self.am_destination = view.node_id == view.destination_id

    def step(self, event: Event, now: float) -> list[Action]:
        if self.state.phase is Phase.DONE:
            return []
        kind = type(event)
        try:
            if kind is MessageReceived:
                return self._on_message(event.msg, now)
            if kind is Connected:
                return self._on_connected(event.peer)
            if kind is TransferFinished:
                return self._on_transfer_finished(event.payload_id, now)
            if kind is LinkDown:
                self._finish(graceful=False)
                return []
            raise ProtocolViolation(f"unexpected event {event!r}")
        except ProtocolViolation as exc:
            self.violation = exc
            self._finish(graceful=False)
            return []

    def _on_connected(self, peer: str) -> list[Action]:
        if self.state.phase is not Phase.DISCOVERY or peer != self.peer:
            raise ProtocolViolation("connected() outside discovery")
        self.state.phase = Phase.CONNECTED
        return [
            SendMessage(AckMsg(self.view.current_ack())),
            SendMessage(InventoryMsg(self.view.inventory())),
        ]

    def _on_message(self, msg: ControlMessage, now: float) -> list[Action]:
        if self.state.phase is Phase.DISCOVERY:  # step() already turned DONE away
            raise ProtocolViolation(f"message {type(msg).__name__} before connection")
        kind = type(msg)
        if kind is AckMsg:
            if self._got_peer_ack:
                raise ProtocolViolation("second ACK in one connection")
            self._got_peer_ack = True
            try:
                merged, changed = merge_ack(self.view.current_ack(), msg.ack)
            except AckDestinationMismatch as exc:
                raise ProtocolViolation(str(exc)) from exc
            return [AdoptAck(merged)] if changed else []
        if kind is InventoryMsg:
            if not self._got_peer_ack or self._got_peer_inventory:
                raise ProtocolViolation("INVENTORY out of order")
            self._got_peer_inventory = True
            wanted = compute_request_list(
                msg.entries,
                self.view.local_ids() | self.view.pending_inbound_ids(),
                self.view.current_ack().delivered_ids,
                self.am_destination,
            )
            actions: list[Action] = [SendMessage(RequestMsg(wanted))]
            actions.extend(self._maybe_start_turn(now))
            return actions
        if kind is RequestMsg:
            if not self._got_peer_inventory or self._got_peer_request:
                raise ProtocolViolation("REQUEST out of order")
            self._got_peer_request = True
            self.state.send_queue = build_send_queue(
                msg.ids, self.view.inventory(), self.peer_is_destination
            )
            return self._maybe_start_turn(now)
        if kind is CompleteMsg:
            if not self._got_peer_request:
                raise ProtocolViolation("COMPLETE before request exchange")
            self.state.received_complete = True
            actions = self._maybe_start_turn(now)
            self._maybe_finish()
            return actions
        if kind is PayloadMsg:
            if not self._got_peer_request:
                raise ProtocolViolation("PAYLOAD before request exchange")
            return [AcceptPayload(msg.payload, msg.meta_for_receiver)]
        raise ProtocolViolation(f"unknown message {msg!r}")

    def _on_transfer_finished(self, pid: PayloadId, now: float) -> list[Action]:
        if self._inflight is None or self._inflight[0] != pid:
            raise ProtocolViolation(f"transfer_finished for unexpected payload {pid}")
        _, copy_at_send = self._inflight
        self._inflight = None
        actions: list[Action] = []
        if not self.peer_is_destination:
            keep, _ = split_copy_count(copy_at_send)
            actions.append(CommitRelay(pid, keep))
        actions.extend(self._continue_sending(now))
        return actions

    def _turn_ready(self) -> bool:
        if not (self._got_peer_inventory and self._got_peer_request):
            return False
        if self.is_initiator:
            return True
        return self.state.received_complete

    def _maybe_start_turn(self, now: float) -> list[Action]:
        if self.state.sent_complete or self.state.phase is Phase.TRANSFERRING:
            return []
        if not self._turn_ready():
            return []
        self.state.phase = Phase.TRANSFERRING
        return self._continue_sending(now)

    def _continue_sending(self, now: float) -> list[Action]:
        while self.state.send_queue:
            pid = self.state.send_queue.pop(0)
            entry = self.view.store_entry(pid)
            if entry is None or entry.payload.expired(now):
                continue  # deleted or dead since the queue was built
            if self.view.is_relay_locked(pid):
                continue  # mid-flight on another connection; conserving copies wins
            copy_count = entry.meta.copy_count
            if copy_count < 2 and not self.peer_is_destination:
                continue
            if self.peer_is_destination:
                receiver_meta = entry.meta.forwarded(self.peer, copy_count)
            else:
                _, receiver_gets = split_copy_count(copy_count)
                receiver_meta = entry.meta.forwarded(self.peer, receiver_gets)
            self._inflight = (pid, copy_count)
            return [SendMessage(PayloadMsg(entry.payload, receiver_meta))]
        self.state.sent_complete = True
        self._maybe_finish()
        return [SendMessage(CompleteMsg())]

    def _maybe_finish(self) -> None:
        if self.state.sent_complete and self.state.received_complete:
            self._finish(graceful=True)

    def _finish(self, graceful: bool) -> None:
        self.state.phase = Phase.DONE
        self.state.graceful = graceful
        self._inflight = None
