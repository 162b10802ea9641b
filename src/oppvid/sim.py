"""Deterministic discrete-event simulator driven by contact traces.

The world owns one store per relay node, the destination's receive state,
and the per-connection protocol engines. Every event is processed at a
single (time, priority, sequence) point by its kind's one handler, so a
scenario (including its seed) maps to exactly one run. The events known
before the run (link ups and downs, segment and ACK ticks) sit in one list
sorted latest first; a heap holds only the messages in flight, numbered
after them, and each step takes the earlier of the two heads. Most
contacts move no payload; one whose handshake nothing else can interleave
with is settled at its link-up in one step (``_settle_quiet_contact``):
both ACK merges, both empty request lists and both graceful-end stamps, from
the engines' own ``merge_ack`` and ``compute_request_list`` and the same
arrival arithmetic as a scheduled message. Any other contact, or one where
a side wants a payload, runs on two ``ConnectionEngine``s message by
message. Each store hands every INVENTORY and REQUEST the same sorted
inventory list until its entries next change (``NodeStore.inventory``).
One-step contacts size a node's ACK and INVENTORY once per Ack object and
inventory list; both are replaced, never mutated. ACK ticks and link-ups
sweep nothing until a world-wide expiry floor, lowered by every insert and
raised by a tick that passes it, has passed; then only the stores with an
expiry due, so a store with nothing due keeps its ``last_sweep_at``.
Every action an engine emits is applied in one place,
``Simulator._apply_actions``. Copy-count conservation is tracked exactly:
for every payload the relay-side sum must equal the initial budget minus
copies lost to TTL expiry or ACK deletion, and a relayed share is booked
lost at the sender's commit and found again when the receiver stores it.
A checked run verifies the invariants per event on what changed (the
payload ids the event touched, the stores it swept, the destination's ACK
if it was replaced), and runs the full scan, ``verify_global_invariants``,
at the end of the run.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from .adaptation import (
    AdaptationConfig,
    LayerSizeModel,
    RESOLUTION_SCALE,
    SegmentHistory,
    package_segment,
    plan_layers,
    record_transmission,
)
from .destination import DestinationState, IngestResult, decodable_quality, generate_ack, ingest
from .model import Ack, Payload, PayloadId, RelayMetadata, validate_node_id
from .protocol import (
    AcceptPayload,
    Action,
    AdoptAck,
    Connected,
    ConnectionEngine,
    LinkDown,
    MessageReceived,
    Phase,
    SendMessage,
    TransferFinished,
    compute_request_list,
    merge_ack,
    should_connect,
)
from .store import ChangeLog, InsertResult, NodeStore, StoredEntry
from .trace import ContactEvent, ContactKind, TraceError, check_pairing, trace_nodes
from .wire import AckMsg, CompleteMsg, InventoryMsg, PayloadMsg, RequestMsg, transmission_size


class ScenarioError(ValueError):
    """Scenario configuration that cannot be simulated. ``problems`` holds the
    (field, message) pair of each rule a ``Scenario`` broke when built."""

    def __init__(self, message: str, problems: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.problems = problems


class InvariantViolationError(AssertionError):
    """Raised in checked runs when a global invariant breaks."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class AdaptiveSvc:
    @property
    def label(self) -> str:
        return "adaptive"


@dataclass(frozen=True)
class FixedNonSvc:
    resolution: str

    def __post_init__(self):
        _check_resolution(self.resolution)

    @property
    def label(self) -> str:
        return f"fixed:{self.resolution}"


Mode = AdaptiveSvc | FixedNonSvc


def _check_resolution(resolution: str) -> None:
    if resolution not in RESOLUTION_SCALE:
        raise ScenarioError(f"unknown resolution class {resolution!r}")


def parse_mode(text: str) -> Mode:
    if text == "adaptive":
        return AdaptiveSvc()
    if text.startswith("fixed:"):
        return FixedNonSvc(text.split(":", 1)[1])
    raise ScenarioError(f"unknown mode {text!r} (expected 'adaptive' or 'fixed:<resolution>')")


@dataclass(frozen=True)
class Scenario:
    """One run's inputs; building one that breaks a rule raises ``ScenarioError`` naming every broken rule.

    ``nodes`` is every node the trace names, derived once when it is built.
    """

    trace: tuple[ContactEvent, ...]
    source: str
    destination: str
    ttl: int
    bandwidth_bytes_per_sec: float
    duration: int
    adaptation: AdaptationConfig = AdaptationConfig()
    mode: Mode = AdaptiveSvc()
    seed: int = 0
    resolution: str = "low"
    ack_period: int = 300
    sizes: LayerSizeModel = LayerSizeModel()
    nodes: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "nodes", frozenset(trace_nodes(self.trace)))
        problems = []
        try:
            check_pairing(self.trace)
        except TraceError as exc:
            problems.append(("trace", str(exc)))
        for name, check in (("source", validate_node_id), ("destination", validate_node_id),
                            ("resolution", _check_resolution)):
            try:
                check(getattr(self, name))
            except ValueError as exc:
                problems.append((name, str(exc)))
        if self.source == self.destination:
            problems.append(("destination", "source and destination must differ"))
        bandwidth = self.bandwidth_bytes_per_sec
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            problems.append(("bandwidth_bytes_per_sec", f"must be positive and finite, got {bandwidth}"))
        for name, low in (("ttl", 1), ("duration", 0), ("ack_period", 1), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int):
                problems.append((name, f"must be an int, got {value!r}"))
            elif low is not None and value < low:
                problems.append((name, f"must be >= {low}, got {value}"))
        if self.nodes:
            for role in ("source", "destination"):
                endpoint = getattr(self, role)
                if endpoint not in self.nodes:
                    problems.append((role, f"{role} {endpoint!r} never appears in the trace"))
        if problems:
            raise ScenarioError("; ".join(f"{name}: {text}" for name, text in problems), tuple(problems))


@dataclass(frozen=True)
class SegmentOutcome:
    segment_index: int
    layers_sent: int
    quality_delivered: int
    delivery_delay_seconds: float | None


@dataclass(frozen=True)
class RunMetrics:
    segments: tuple[SegmentOutcome, ...]
    delivered_base: int
    delivered_full: int
    mean_quality: float
    relay_transmissions: int
    bytes_relayed: int
    contacts_used: int


@dataclass(frozen=True)
class Violation:
    invariant: str
    payload_id: PayloadId | None
    time: float
    detail: str

    def __str__(self) -> str:
        pid = f" [{self.payload_id}]" if self.payload_id is not None else ""
        return f"{self.invariant}{pid} at t={self.time}: {self.detail}"


# Event priorities at equal timestamps: in-flight arrivals land first, then
# link downs (a transfer completing exactly at link-down still counts), then
# link ups, then source/destination ticks.
_PRIO_MSG = 0
_PRIO_DOWN = 1
_PRIO_UP = 2
_PRIO_SEGMENT = 3
_PRIO_ACK = 4

# Bytes on the link of the two messages every quiet contact ends with.
_EMPTY_REQUEST_BYTES = transmission_size(RequestMsg(()))
_COMPLETE_BYTES = transmission_size(CompleteMsg())
# The destination's inventory: one shared list, so its size memo hits too.
_NO_INVENTORY: list[tuple[PayloadId, int]] = []


def _arrival(start: float, size: int, bandwidth: float) -> float:
    """When ``size`` bytes have fully arrived, if the first leaves at ``start``."""
    return start + size / bandwidth


def _memo_size(memo: dict, node: str, key, make) -> int:
    """``transmission_size(make(key))``, kept per node while ``key`` is the
    very object last sized there."""
    hit = memo.get(node)
    if hit is not None and hit[0] is key:
        return hit[1]
    size = transmission_size(make(key))
    memo[node] = (key, size)
    return size


@dataclass
class _SegmentInfo:
    created_at: int
    layers_sent: int
    payload_ids: tuple[PayloadId, ...]
    base_delivered_at: float | None = None


class _Connection:
    __slots__ = ("a", "b", "peer", "engines", "busy_until", "pending", "locks", "alive")

    def __init__(self, a: str, b: str):
        self.a = a
        self.b = b
        self.peer = {a: b, b: a}
        self.engines: dict[str, ConnectionEngine] = {}
        self.busy_until: dict[str, float] = {a: 0.0, b: 0.0}
        self.pending: dict[str, set[PayloadId]] = {a: set(), b: set()}
        self.locks: list[tuple[str, PayloadId]] = []
        self.alive = True


class _NodeView:
    """Engine-facing read access to one node's slice of the world, shared by
    the node's connections. It refers directly to the node's store (or the
    destination's received set), pending ids and the ACK and lock tables,
    never to the simulator: the simulator holds its views, so a reference
    back would leave each finished world to the cyclic collector.
    """

    def __init__(self, sim: Simulator, node: str):
        self.node_id = node
        self.destination_id = sim.scenario.destination
        self._store = sim.stores.get(node)  # None at the destination
        self._received = sim.dest_state.received
        self._acks = sim.node_ack
        self._locked = sim.locked
        self._pending = sim.pending_inbound[node]

    def current_ack(self) -> Ack:
        return self._acks[self.node_id]

    def inventory(self) -> list[tuple[PayloadId, int]]:
        return _NO_INVENTORY if self._store is None else self._store.inventory()

    def local_ids(self) -> set[PayloadId]:
        return self._received if self._store is None else self._store.ids()

    def pending_inbound_ids(self) -> set[PayloadId]:
        return self._pending

    def store_entry(self, pid: PayloadId) -> StoredEntry | None:
        return None if self._store is None else self._store.get(pid)

    def is_relay_locked(self, pid: PayloadId) -> bool:
        return (self.node_id, pid) in self._locked


class Simulator:
    """One scenario's world plus its event loop.

    With ``check_invariants``, the invariants are checked per event on what
    changed, with a full scan at the end of the run; either raises
    ``InvariantViolationError``, as does a protocol violation that the
    connection engine would otherwise turn into an abrupt disconnect.
    ``seed_payload`` lets tests plant replicas directly; ``on_event`` is a
    post-event hook ``f(sim, kind, time, data)`` for observation, called
    after the event's check.
    """

    def __init__(
        self,
        scenario: Scenario,
        check_invariants: bool = False,
        on_event: Callable[["Simulator", str, float, tuple], None] | None = None,
    ):
        self.scenario = scenario
        self.check_invariants = check_invariants
        self.on_event = on_event

        nodes = sorted(scenario.nodes | {scenario.source, scenario.destination})
        self.nodes = nodes
        self.relay_nodes = [n for n in nodes if n != scenario.destination]
        # Checked runs share one change log with every store; _check_changes
        # drains it after each event.
        self._changes = ChangeLog() if check_invariants else None
        self._checked_dest_ack: Ack | None = None
        self.stores: dict[str, NodeStore] = {n: NodeStore(self._changes) for n in self.relay_nodes}
        self.dest_state = DestinationState()
        self.node_ack: dict[str, Ack] = {n: Ack.empty(scenario.destination) for n in nodes}
        self.recents: dict[str, dict[str, float]] = {n: {} for n in nodes}

        self.conns: dict[tuple[str, str], _Connection] = {}
        # (sender, payload id) of every payload in flight.
        self.locked: set[tuple[str, PayloadId]] = set()
        # Ids each node has requested on any open connection and not yet
        # received; a connection's own share is in its ``pending``.
        self.pending_inbound: dict[str, set[PayloadId]] = {n: set() for n in nodes}
        self.views = {n: _NodeView(self, n) for n in nodes}
        # Each node's (Ack, bytes) and (inventory list, bytes) as last sized.
        self._ack_bytes: dict[str, tuple[Ack, int]] = {}
        self._inventory_bytes: dict[str, tuple[list, int]] = {}
        # At or below every relay store's next_expiry(): lowered by _insert,
        # raised by an ACK tick that finds it passed.
        self._expiry_floor: float = math.inf

        # Conservation ledger: initial replica budget and copies lost to
        # TTL/ACK deletion per payload id.
        self.initial_copies: dict[PayloadId, int] = {}
        self.lost_copies: dict[PayloadId, int] = {}

        self.segment_infos: dict[int, _SegmentInfo] = {}
        self.history = SegmentHistory()
        self.current_layers = scenario.adaptation.initial_layers
        self.relay_transmissions = 0
        self.bytes_relayed = 0
        self.contacts_used = 0
        self.now = 0.0
        self._ran = False

        # Every event known before the run, numbered in build order and
        # sorted latest first, so ``run`` takes the next one with ``pop()``.
        # The heap holds only messages in flight, numbered after these.
        timeline: list[tuple[float, int, int, str, tuple]] = []
        add = timeline.append
        for event in scenario.trace:
            if event.time > scenario.duration:
                continue
            prio = _PRIO_UP if event.kind is ContactKind.UP else _PRIO_DOWN
            add((event.time, prio, len(timeline) + 1, event.kind.value, (event.node_a, event.node_b)))
        period = scenario.adaptation.segment_period
        index = 0
        t = period
        while t < scenario.duration:
            add((float(t), _PRIO_SEGMENT, len(timeline) + 1, "segment", (index, t)))
            index += 1
            t += period
        t = scenario.ack_period
        while t <= scenario.duration:
            add((float(t), _PRIO_ACK, len(timeline) + 1, "ack", (t,)))
            t += scenario.ack_period
        timeline.sort(reverse=True)
        self._timeline = timeline
        self._event_seq = len(timeline)
        self._heap: list[tuple[float, int, int, str, tuple]] = []

    # -- public API ----------------------------------------------------------

    def seed_payload(self, payload: Payload, meta: RelayMetadata, at: str | None = None) -> None:
        """Plant a replica directly (test/debug harness)."""
        node = at if at is not None else self.scenario.source
        result = self._insert(node, StoredEntry(payload, meta), self.now)
        if result is not InsertResult.STORED:
            raise ScenarioError(f"could not seed payload {payload.id}: {result.value}")
        self.initial_copies[payload.id] = meta.copy_count

    def run(self) -> RunMetrics:
        if self._ran:
            raise RuntimeError("a Simulator instance runs once; build a new one")
        self._ran = True
        handlers = {"msg": self._on_message_event, "down": self._on_down, "up": self._on_up,
                    "segment": self._on_segment, "ack": self._on_ack_tick}
        timeline, heap, duration = self._timeline, self._heap, self.scenario.duration
        next_static, next_msg = timeline.pop, heapq.heappop
        check, on_event = self.check_invariants, self.on_event
        while True:
            # The earlier of the two heads; sequence numbers are unique, so
            # whole tuples never tie and the order is the single-queue one.
            if heap:
                if timeline and timeline[-1] < heap[0]:
                    time, _, _, kind, data = next_static()
                else:
                    time, _, _, kind, data = next_msg(heap)
            elif timeline:
                time, _, _, kind, data = next_static()
            else:
                break
            if time > duration:
                break
            self.now = time
            handlers[kind](time, data)
            if check:
                violations = self._check_changes()
                if violations:
                    raise InvariantViolationError(violations)
            if on_event is not None:
                on_event(self, kind, time, data)
        if self.check_invariants:
            violations = verify_global_invariants(self)
            if violations:
                raise InvariantViolationError(violations)
        return self._collect_metrics()

    def _check_changes(self) -> list[Violation]:
        """The invariants over what changed since the previous check."""
        changes = self._changes
        dest_ack = self.node_ack[self.scenario.destination]
        ack_changed = dest_ack is not self._checked_dest_ack
        if not (changes.ids or changes.swept or ack_changed):
            return []
        violations = _violations(self, changes.ids, changes.swept, ack_changed)
        changes.ids.clear()
        changes.swept.clear()
        self._checked_dest_ack = dest_ack
        return violations

    # -- event handlers --------------------------------------------------------

    def _on_up(self, now: float, data: tuple) -> None:
        a, b = data
        if self._expiry_floor < now:
            for node in data:
                store = self.stores.get(node)
                if store is not None and store.next_expiry() < now:
                    self._sweep(store, now)
        if not (should_connect(b, now, self.recents[a]) and should_connect(a, now, self.recents[b])):
            return
        self.contacts_used += 1
        initiator = min(a, b)
        responder = b if initiator == a else a
        if self._settle_quiet_contact(initiator, responder, now):
            return
        conn = _Connection(a, b)
        for node in (a, b):
            conn.engines[node] = ConnectionEngine(
                self.views[node], peer=conn.peer[node], is_initiator=node == initiator
            )
        self.conns[data] = conn
        for node in (initiator, responder):
            self._step_engine(conn, node, Connected(conn.peer[node]), now)

    def _settle_quiet_contact(self, i: str, r: str, now: float) -> bool:
        """End a contact that moves no payload gracefully, in one step, if
        nothing else can interleave with it; False, with nothing applied, if
        it cannot be settled so.

        With both request lists empty, initiator ``i`` and responder ``r``
        send ACK, INVENTORY, an empty REQUEST and COMPLETE each way: their
        INVENTORYs land at ``a2`` and ``b2``; each REQUEST leaves when the
        peer's INVENTORY lands, so both land at ``c``; ``i``'s COMPLETE ends
        ``r`` at ``d`` and ``r``'s ends ``i`` at ``e``. Nothing interleaves
        when ``e`` is within the run, no timeline event comes before ``e``
        (messages go first at equal times), and no message is in flight
        until after ``e`` (one at ``e`` was numbered earlier and goes first).
        """
        view_i, view_r = self.views[i], self.views[r]
        ack_i, ack_r = view_i.current_ack(), view_r.current_ack()
        # Each INVENTORY is built at link-up, before either ACK is adopted.
        inventory_i, inventory_r = view_i.inventory(), view_r.inventory()
        merged_i, changed_i = merge_ack(ack_i, ack_r)
        merged_r, changed_r = merge_ack(ack_r, ack_i)
        destination = self.scenario.destination
        # An empty inventory offers nothing to request.
        if inventory_r and compute_request_list(
                inventory_r, view_i.local_ids() | view_i.pending_inbound_ids(),
                merged_i.delivered_ids, i == destination):
            return False
        if inventory_i and compute_request_list(
                inventory_i, view_r.local_ids() | view_r.pending_inbound_ids(),
                merged_r.delivered_ids, r == destination):
            return False
        bandwidth = self.scenario.bandwidth_bytes_per_sec
        acks, inventories = self._ack_bytes, self._inventory_bytes
        a1 = _arrival(now, _memo_size(acks, i, ack_i, AckMsg), bandwidth)
        a2 = _arrival(a1, _memo_size(inventories, i, inventory_i, InventoryMsg), bandwidth)
        b1 = _arrival(now, _memo_size(acks, r, ack_r, AckMsg), bandwidth)
        b2 = _arrival(b1, _memo_size(inventories, r, inventory_r, InventoryMsg), bandwidth)
        c = _arrival(a2 if a2 > b2 else b2, _EMPTY_REQUEST_BYTES, bandwidth)
        d = _arrival(c, _COMPLETE_BYTES, bandwidth)
        e = _arrival(d, _COMPLETE_BYTES, bandwidth)
        timeline, heap = self._timeline, self._heap
        if (e > self.scenario.duration or (timeline and timeline[-1][0] < e)
                or (heap and heap[0][0] <= e)):
            return False
        if changed_r:
            self._adopt_ack(r, merged_r)
        if changed_i:
            self._adopt_ack(i, merged_i)
        self.recents[r][i] = d
        self.recents[i][r] = e
        return True

    def _on_down(self, now: float, data: tuple) -> None:
        conn = self.conns.get(data)
        if conn is not None:
            self._teardown(conn, now)

    def _on_message_event(self, now: float, data: tuple) -> None:
        conn, sender, receiver, msg = data
        if not conn.alive:
            return  # link went down while this was in flight
        if type(msg) is PayloadMsg:
            self._on_payload_arrival(conn, sender, receiver, msg, now)
        else:
            self._step_engine(conn, receiver, MessageReceived(msg), now)

    def _on_segment(self, now: float, data: tuple) -> None:
        index, t = data
        scenario = self.scenario
        cfg = scenario.adaptation
        source = scenario.source
        if isinstance(scenario.mode, AdaptiveSvc):
            planned = plan_layers(self.history, self.node_ack[source], t, self.current_layers, cfg)
            self.current_layers = planned
            record, packaged = package_segment(
                index, planned, t, scenario.ttl, source, scenario.resolution, scenario.sizes, cfg
            )
            record_transmission(record, self.history)
            layers_sent = planned
        else:
            size = scenario.sizes.single_file_bytes(scenario.mode.resolution, cfg.max_layers)
            pid = PayloadId.for_layer(source, index, 0)
            packaged = [(Payload(pid, size, t, scenario.ttl), RelayMetadata(cfg.initial_copy_count, (source,)))]
            layers_sent = 1
        for payload, meta in packaged:
            self._insert(source, StoredEntry(payload, meta), float(t))
            self.initial_copies[payload.id] = meta.copy_count
        self.segment_infos[index] = _SegmentInfo(t, layers_sent, tuple(p.id for p, _ in packaged))

    def _on_ack_tick(self, now: float, data: tuple) -> None:
        """A new cumulative ACK; then, if the expiry floor has passed, a sweep
        of each relay store with an expiry due and a new floor: the least
        ``next_expiry()`` if none was due, else ``now`` (asking a swept store
        again costs more than the ticks it would skip)."""
        (t,) = data
        ack = generate_ack(t, self.scenario.destination, self.dest_state)
        self.node_ack[self.scenario.destination] = ack
        if self._expiry_floor < now:
            floor = math.inf
            for store in self.stores.values():
                expiry = store.next_expiry()
                if expiry < floor:  # floor >= now, so a due store gets here
                    if expiry < now:
                        self._sweep(store, now)
                        expiry = now
                    floor = expiry
            self._expiry_floor = floor

    # -- world mechanics -------------------------------------------------------

    def _insert(self, node: str, entry: StoredEntry, now: float) -> InsertResult:
        """Every store insert: a stored entry lowers the expiry floor."""
        result = self.stores[node].insert(entry, now)
        if result is InsertResult.STORED:
            payload = entry.payload
            expiry = payload.created_at + payload.ttl_seconds
            if expiry < self._expiry_floor:
                self._expiry_floor = expiry
        return result

    def _sweep(self, store: NodeStore, now: float) -> None:
        for entry in store.expire_entries(now):
            self._lose(entry.payload.id, entry.meta.copy_count)

    def _lose(self, pid: PayloadId, copies: int) -> None:
        self.lost_copies[pid] = self.lost_copies.get(pid, 0) + copies
        if self._changes is not None:
            self._changes.ids.add(pid)

    def _step_engine(self, conn: _Connection, node: str, event, now: float) -> None:
        engine = conn.engines[node]
        if engine.state.phase is Phase.DONE:
            return
        actions = engine.step(event, now)
        if engine.violation is not None and self.check_invariants:
            # The engine swallowed it into an abrupt end; a checked run raises.
            raise InvariantViolationError([
                Violation("protocol-violation", None, now,
                          f"node {node} (peer {engine.peer}): {engine.violation}")
            ])
        if actions:
            self._apply_actions(conn, node, actions, now)
        if engine.state.phase is Phase.DONE:
            self._on_done(conn, node, now)

    def _apply_actions(self, conn: _Connection, node: str, actions: list[Action], now: float) -> None:
        for action in actions:
            kind = type(action)
            if kind is SendMessage:
                if conn.alive:
                    msg = action.msg
                    if type(msg) is RequestMsg:
                        conn.pending[node] = set(msg.ids)
                        self.pending_inbound[node] |= conn.pending[node]
                    self._schedule_message(conn, node, msg, now)
            elif kind is AdoptAck:
                self._adopt_ack(node, action.ack)
            elif kind is AcceptPayload:
                self._accept(node, action.payload, action.meta, now)
            else:  # CommitRelay
                self._commit(node, action.payload_id, action.sender_keeps)

    def _schedule_message(self, conn: _Connection, sender: str, msg, now: float) -> None:
        busy = conn.busy_until
        start = busy[sender] if busy[sender] > now else now
        arrival = _arrival(start, transmission_size(msg), self.scenario.bandwidth_bytes_per_sec)
        busy[sender] = arrival
        if type(msg) is PayloadMsg:
            key = (sender, msg.payload.id)
            self.locked.add(key)
            conn.locks.append(key)
        self._event_seq += 1
        event = (arrival, _PRIO_MSG, self._event_seq, "msg", (conn, sender, conn.peer[sender], msg))
        heapq.heappush(self._heap, event)

    def _adopt_ack(self, node: str, ack: Ack) -> None:
        self.node_ack[node] = ack
        if node != self.scenario.destination:
            for entry in self.stores[node].apply_ack_entries(ack):
                self._lose(entry.payload.id, entry.meta.copy_count)

    def _on_payload_arrival(self, conn: _Connection, sender: str, receiver: str, msg: PayloadMsg, now: float) -> None:
        pid = msg.payload.id
        key = (sender, pid)
        self.locked.remove(key)
        conn.locks.remove(key)
        if pid in conn.pending[receiver]:
            conn.pending[receiver].remove(pid)
            self.pending_inbound[receiver].remove(pid)
        self.relay_transmissions += 1
        self.bytes_relayed += msg.payload.size_bytes
        self._step_engine(conn, receiver, MessageReceived(msg), now)
        self._step_engine(conn, sender, TransferFinished(pid), now)

    def _accept(self, node: str, payload: Payload, meta: RelayMetadata, now: float) -> None:
        """``node`` takes in an arrived payload: the destination delivers it, a
        relay stores it unless it already holds the id's ACK."""
        pid = payload.id
        if node == self.scenario.destination:
            # Direct delivery: the sender keeps its replica and budget untouched.
            if not payload.expired(now) and ingest(payload, self.dest_state) is IngestResult.NEW:
                self._maybe_mark_base_delivery(pid, now)
        elif pid not in self.node_ack[node].delivered_ids:
            if self._insert(node, StoredEntry(payload, meta), now) is InsertResult.STORED:
                self._lose(pid, -meta.copy_count)

    def _commit(self, node: str, pid: PayloadId, keeps: int) -> None:
        """The sender of a relay transfer keeps ``keeps`` copies, if it still
        holds the id; the share it gave away is lost until the receiver stores it."""
        store = self.stores[node]
        entry = store.get(pid)
        if entry is not None:
            self._lose(pid, entry.meta.copy_count - keeps)
            store.update_copy_count(pid, keeps)

    def _maybe_mark_base_delivery(self, pid: PayloadId, now: float) -> None:
        if pid.source_node != self.scenario.source:
            return
        info = self.segment_infos.get(pid.segment_index)
        if info is None or info.base_delivered_at is not None:
            return
        if isinstance(self.scenario.mode, AdaptiveSvc):
            base = PayloadId.for_layer(self.scenario.source, pid.segment_index, 0)
            extraction = PayloadId.for_extraction_info(self.scenario.source, pid.segment_index)
            if base in self.dest_state.received and extraction in self.dest_state.received:
                info.base_delivered_at = now
        elif pid == info.payload_ids[0]:
            info.base_delivered_at = now

    def _on_done(self, conn: _Connection, node: str, now: float) -> None:
        """``node``'s engine has just finished: end the contact or record a graceful side."""
        if not conn.engines[node].state.graceful:
            self._teardown(conn, now)
            return
        self.recents[node][conn.peer[node]] = now
        if conn.engines[conn.peer[node]].state.graceful:  # graceful implies DONE
            self._close(conn)

    def _teardown(self, conn: _Connection, now: float) -> None:
        """Abrupt end: in-flight data is lost, nothing remembered."""
        for node in (conn.a, conn.b):
            engine = conn.engines[node]
            if engine.state.phase is not Phase.DONE:
                engine.step(LinkDown(), now)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        conn.alive = False
        self.locked.difference_update(conn.locks)
        for node, ids in conn.pending.items():
            self.pending_inbound[node] -= ids
        del self.conns[(conn.a, conn.b)]

    # -- metrics -----------------------------------------------------------------

    def _collect_metrics(self) -> RunMetrics:
        outcomes = []
        for index in sorted(self.segment_infos):
            info = self.segment_infos[index]
            if isinstance(self.scenario.mode, AdaptiveSvc):
                quality = decodable_quality(index, self.scenario.source, self.dest_state)
            else:
                quality = 1 if info.payload_ids[0] in self.dest_state.received else 0
            delay = None
            if info.base_delivered_at is not None:
                delay = info.base_delivered_at - info.created_at
            outcomes.append(SegmentOutcome(index, info.layers_sent, quality, delay))
        delivered_base = sum(1 for o in outcomes if o.quality_delivered >= 1)
        delivered_full = sum(1 for o in outcomes if o.quality_delivered >= o.layers_sent)
        mean_quality = (
            sum(o.quality_delivered for o in outcomes) / len(outcomes) if outcomes else 0.0
        )
        return RunMetrics(
            segments=tuple(outcomes),
            delivered_base=delivered_base,
            delivered_full=delivered_full,
            mean_quality=mean_quality,
            relay_transmissions=self.relay_transmissions,
            bytes_relayed=self.bytes_relayed,
            contacts_used=self.contacts_used,
        )


def run(scenario: Scenario, check_invariants: bool = False, on_event=None) -> RunMetrics:
    """Simulate one scenario start to finish."""
    return Simulator(scenario, check_invariants=check_invariants, on_event=on_event).run()


def verify_global_invariants(sim: Simulator) -> list[Violation]:
    """Full-scan check of the world; empty result means all invariants hold.

    The per-event rules applied to every payload id and every store. Checked
    runs call it once, at the end; it has no side effects, so it can be
    called at any point as the oracle for the per-event check.
    """
    pids = set(sim.initial_copies)
    for store in sim.stores.values():
        pids.update(store._entries)
    return _violations(sim, pids, set(sim.stores.values()), True)


def _violations(
    sim: Simulator, pids: set[PayloadId], swept: set[NodeStore], check_ack: bool
) -> list[Violation]:
    """The invariant rules over a scope of the world.

    Expiry is checked for every entry of each store in ``swept`` and for the
    entries of ``pids`` in the other stores; id mapping and conservation for
    each id in ``pids``; ACK monotonicity if ``check_ack``.
    """
    violations: list[Violation] = []
    now = sim.now
    held: dict[PayloadId, int] = {}  # relay-side copy sum per id in ``pids``
    held_get = held.get
    for node, store in sim.stores.items():  # relay nodes, in order
        entries = store._entries
        if store in swept:
            items = entries.items()
        elif pids:
            items = [(pid, entries[pid]) for pid in pids if pid in entries]
        else:
            continue
        sweep_at = store.last_sweep_at
        for pid, entry in items:
            payload = entry.payload
            if payload.expired(sweep_at):
                violations.append(
                    Violation("expired-payload-retained", pid, now,
                              f"node {node} holds it past TTL despite a sweep at {sweep_at}")
                )
            if pid in pids:
                held[pid] = held_get(pid, 0) + entry.meta.copy_count
                if payload.id != pid:
                    violations.append(
                        Violation("duplicate-replica", pid, now,
                                  f"node {node} maps {pid} to payload {payload.id}")
                    )
    initial_get = sim.initial_copies.get
    lost_get = sim.lost_copies.get
    for pid in pids:
        initial = initial_get(pid)
        if initial is None:
            if pid in held:
                violations.append(
                    Violation("copy-conservation", pid, now, "replica of an unregistered payload")
                )
            continue
        got = held_get(pid, 0)
        if got != initial - lost_get(pid, 0):
            violations.append(
                Violation("copy-conservation", pid, now,
                          f"relay-side sum {got} != initial {initial} - lost {lost_get(pid, 0)}")
            )
    violations.sort(key=lambda v: (v.invariant, v.payload_id.canonical if v.payload_id else ""))
    if check_ack:
        dest_ack = sim.node_ack[sim.scenario.destination]
        if not dest_ack.delivered_ids <= sim.dest_state.received:
            extra = next(iter(dest_ack.delivered_ids - sim.dest_state.received))
            violations.append(
                Violation("ack-monotonicity", extra, now,
                          "destination acknowledged a payload it never received")
            )
    return violations
