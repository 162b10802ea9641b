"""Deterministic discrete-event simulator driven by contact traces.

The world owns one store per relay node, the destination's receive state,
and the per-connection protocol engines. Every event is processed at a
single (time, priority, sequence) point, so a scenario (including its seed)
maps to exactly one run. Copy-count conservation is tracked exactly: for
every payload the relay-side sum must equal the initial budget minus copies
lost to TTL expiry or ACK deletion. A checked run verifies the invariants
per event on what changed (the payload ids the event touched, the stores it
swept, the destination's ACK if it was replaced), and runs the full scan,
``verify_global_invariants``, at the end of the run.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .adaptation import (
    AdaptationConfig,
    LayerSizeModel,
    RESOLUTION_SCALE,
    package_segment,
    plan_layers,
    record_transmission,
)
from .destination import DestinationState, IngestResult, decodable_quality, generate_ack, ingest
from .model import Ack, Payload, PayloadId, RelayMetadata, SegmentRecord
from .protocol import (
    AcceptPayload,
    Action,
    AdoptAck,
    CommitRelay,
    Connected,
    ConnectionEngine,
    LinkDown,
    MessageReceived,
    Phase,
    RecentContacts,
    SendMessage,
    TransferFinished,
    should_connect,
)
from .store import ChangeLog, InsertResult, NodeStore, StoredEntry
from .trace import ContactEvent, ContactKind, trace_nodes
from .wire import PayloadMsg, RequestMsg, transmission_size


class ScenarioError(ValueError):
    """Scenario configuration that cannot be simulated."""


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
        if self.resolution not in RESOLUTION_SCALE:
            raise ScenarioError(f"unknown resolution class {self.resolution!r}")

    @property
    def label(self) -> str:
        return f"fixed:{self.resolution}"


Mode = AdaptiveSvc | FixedNonSvc


def parse_mode(text: str) -> Mode:
    if text == "adaptive":
        return AdaptiveSvc()
    if text.startswith("fixed:"):
        return FixedNonSvc(text.split(":", 1)[1])
    raise ScenarioError(f"unknown mode {text!r} (expected 'adaptive' or 'fixed:<resolution>')")


@dataclass(frozen=True)
class Scenario:
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

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))


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


@dataclass
class _SegmentInfo:
    created_at: int
    layers_sent: int
    payload_ids: tuple[PayloadId, ...]
    base_delivered_at: float | None = None


class _Connection:
    __slots__ = ("conn_id", "a", "b", "engines", "busy_until", "pending", "locks",
                 "graceful_recorded", "alive")

    def __init__(self, conn_id: int, a: str, b: str):
        self.conn_id = conn_id
        self.a = a
        self.b = b
        self.engines: dict[str, ConnectionEngine] = {}
        self.busy_until: dict[str, float] = {a: 0.0, b: 0.0}
        self.pending: dict[str, set[PayloadId]] = {a: set(), b: set()}
        self.locks: list[tuple[str, PayloadId]] = []
        self.graceful_recorded: set[str] = set()
        self.alive = True

    def other(self, node: str) -> str:
        return self.b if node == self.a else self.a


class _NodeView:
    """Engine-facing read access to one node's slice of the world."""

    def __init__(self, sim: Simulator, node: str, conn: _Connection):
        self._sim = sim
        self._conn = conn
        self.node_id = node
        self.destination_id = sim.scenario.destination

    def current_ack(self) -> Ack:
        return self._sim.node_ack[self.node_id]

    def inventory(self) -> list[tuple[PayloadId, int]]:
        if self.node_id == self.destination_id:
            return []
        return self._sim.stores[self.node_id].inventory()

    def local_ids(self) -> set[PayloadId]:
        if self.node_id == self.destination_id:
            return self._sim.dest_state.received
        return self._sim.stores[self.node_id].ids()

    def pending_inbound_ids(self) -> set[PayloadId]:
        out: set[PayloadId] = set()
        for conn in self._sim.conns.values():
            if conn is not self._conn and self.node_id in conn.pending:
                out |= conn.pending[self.node_id]
        return out

    def store_entry(self, pid: PayloadId) -> StoredEntry | None:
        if self.node_id == self.destination_id:
            return None
        return self._sim.stores[self.node_id].get(pid)

    def is_relay_locked(self, pid: PayloadId) -> bool:
        return (self.node_id, pid) in self._sim.locked


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
        self._validate(scenario)

        nodes = sorted(trace_nodes(scenario.trace) | {scenario.source, scenario.destination})
        self.nodes = nodes
        self.relay_nodes = [n for n in nodes if n != scenario.destination]
        # Checked runs share one change log with every store; _check_changes
        # drains it after each event.
        self._changes = ChangeLog() if check_invariants else None
        self._checked_dest_ack: Ack | None = None
        self.stores: dict[str, NodeStore] = {n: NodeStore(self._changes) for n in self.relay_nodes}
        self.dest_state = DestinationState()
        self.node_ack: dict[str, Ack] = {n: Ack.empty(scenario.destination) for n in nodes}
        self.recents: dict[str, RecentContacts] = {n: RecentContacts() for n in nodes}

        self.conns: dict[int, _Connection] = {}
        self.conns_by_pair: dict[tuple[str, str], int] = {}
        self.locked: dict[tuple[str, PayloadId], int] = {}
        self._conn_seq = 0
        self._event_seq = 0
        self._heap: list[tuple[float, int, int, str, tuple]] = []

        # Conservation ledger: initial replica budget and copies lost to
        # TTL/ACK deletion per payload id.
        self.initial_copies: dict[PayloadId, int] = {}
        self.lost_copies: dict[PayloadId, int] = {}

        self.segment_infos: dict[int, _SegmentInfo] = {}
        self.history: list[SegmentRecord] = []
        self.current_layers = scenario.adaptation.initial_layers
        self.relay_transmissions = 0
        self.bytes_relayed = 0
        self.contacts_used = 0
        self.now = 0.0
        self._ran = False

        for event in scenario.trace:
            if event.time > scenario.duration:
                continue
            prio = _PRIO_UP if event.kind is ContactKind.UP else _PRIO_DOWN
            self._push(event.time, prio, event.kind.value, (event.node_a, event.node_b))
        period = scenario.adaptation.segment_period
        index = 0
        t = period
        while t < scenario.duration:
            self._push(float(t), _PRIO_SEGMENT, "segment", (index, t))
            index += 1
            t += period
        t = scenario.ack_period
        while t <= scenario.duration:
            self._push(float(t), _PRIO_ACK, "ack", (t,))
            t += scenario.ack_period

    @staticmethod
    def _validate(scenario: Scenario) -> None:
        if scenario.source == scenario.destination:
            raise ScenarioError("source and destination must differ")
        if not (math.isfinite(scenario.bandwidth_bytes_per_sec) and scenario.bandwidth_bytes_per_sec > 0):
            raise ScenarioError("bandwidth must be positive and finite")
        if scenario.ttl <= 0:
            raise ScenarioError("ttl must be positive")
        if scenario.duration < 0:
            raise ScenarioError("duration must be >= 0")
        if scenario.ack_period < 1:
            raise ScenarioError("ack_period must be >= 1")
        if scenario.resolution not in RESOLUTION_SCALE:
            raise ScenarioError(f"unknown resolution class {scenario.resolution!r}")
        if scenario.trace:
            nodes = trace_nodes(scenario.trace)
            for endpoint, role in ((scenario.source, "source"), (scenario.destination, "destination")):
                if endpoint not in nodes:
                    raise ScenarioError(f"{role} {endpoint!r} never appears in the trace")

    # -- public API ----------------------------------------------------------

    def seed_payload(self, payload: Payload, meta: RelayMetadata, at: str | None = None) -> None:
        """Plant a replica directly (test/debug harness)."""
        node = at if at is not None else self.scenario.source
        result = self.stores[node].insert(StoredEntry(payload, meta), self.now)
        if result is not InsertResult.STORED:
            raise ScenarioError(f"could not seed payload {payload.id}: {result.value}")
        self.initial_copies[payload.id] = meta.copy_count

    def run(self) -> RunMetrics:
        if self._ran:
            raise RuntimeError("a Simulator instance runs once; build a new one")
        self._ran = True
        while self._heap:
            time, _, _, kind, data = heapq.heappop(self._heap)
            if time > self.scenario.duration:
                break
            self.now = time
            if kind == "msg":
                self._on_message_event(time, data)
            elif kind == "down":
                self._on_down(time, data)
            elif kind == "up":
                self._on_up(time, data)
            elif kind == "segment":
                self._on_segment(data)
            elif kind == "ack":
                self._on_ack_tick(data)
            if self.check_invariants:
                violations = self._check_changes()
                if violations:
                    raise InvariantViolationError(violations)
            if self.on_event is not None:
                self.on_event(self, kind, time, data)
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

    def _push(self, time: float, prio: int, kind: str, data: tuple) -> None:
        self._event_seq += 1
        heapq.heappush(self._heap, (time, prio, self._event_seq, kind, data))

    def _on_up(self, now: float, data: tuple) -> None:
        a, b = data
        for node in (a, b):
            if node in self.stores:
                self._sweep(node, now)
        if not (should_connect(b, now, self.recents[a]) and should_connect(a, now, self.recents[b])):
            return
        self._conn_seq += 1
        conn = _Connection(self._conn_seq, a, b)
        initiator = min(a, b)
        for node in (a, b):
            conn.engines[node] = ConnectionEngine(
                _NodeView(self, node, conn), peer=conn.other(node), is_initiator=node == initiator
            )
        self.conns[conn.conn_id] = conn
        self.conns_by_pair[(a, b)] = conn.conn_id
        self.contacts_used += 1
        for node in (initiator, conn.other(initiator)):
            self._step_engine(conn, node, Connected(conn.other(node)), now)

    def _on_down(self, now: float, data: tuple) -> None:
        conn_id = self.conns_by_pair.get(tuple(data))
        if conn_id is not None:
            conn = self.conns.get(conn_id)
            if conn is not None:
                self._teardown(conn, now)

    def _on_message_event(self, now: float, data: tuple) -> None:
        conn_id, sender, receiver, msg = data
        conn = self.conns.get(conn_id)
        if conn is None or not conn.alive:
            return  # link went down while this was in flight
        if isinstance(msg, PayloadMsg):
            self._on_payload_arrival(conn, sender, receiver, msg, now)
        else:
            self._step_engine(conn, receiver, MessageReceived(msg), now)

    def _on_segment(self, data: tuple) -> None:
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
            self.stores[source].insert(StoredEntry(payload, meta), float(t))
            self.initial_copies[payload.id] = meta.copy_count
        self.segment_infos[index] = _SegmentInfo(t, layers_sent, tuple(p.id for p, _ in packaged))

    def _on_ack_tick(self, data: tuple) -> None:
        (t,) = data
        ack = generate_ack(t, self.scenario.destination, self.dest_state)
        self.node_ack[self.scenario.destination] = ack
        for node in self.relay_nodes:
            self._sweep(node, float(t))

    # -- world mechanics -------------------------------------------------------

    def _sweep(self, node: str, now: float) -> None:
        for entry in self.stores[node].expire_entries(now):
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
        if engine.violation is not None:
            self._check_engine(engine, now)
        self._apply_actions(conn, node, actions, now)
        self._after_step(conn, node, now)

    def _check_engine(self, engine: ConnectionEngine, now: float) -> None:
        """Raise in checked runs on a protocol violation the engine swallowed."""
        if self.check_invariants:
            raise InvariantViolationError([
                Violation("protocol-violation", None, now,
                          f"node {engine.view.node_id} (peer {engine.peer}): {engine.violation}")
            ])

    def _apply_actions(self, conn: _Connection, node: str, actions: list[Action], now: float) -> None:
        for action in actions:
            if isinstance(action, SendMessage):
                if conn.alive:
                    if isinstance(action.msg, RequestMsg):
                        conn.pending[node] = set(action.msg.ids)
                    self._schedule_message(conn, node, action.msg, now)
            elif isinstance(action, AdoptAck):
                self._adopt_ack(node, action.ack)
            else:
                # AcceptPayload/CommitRelay are settled by _on_payload_arrival.
                raise RuntimeError(f"unexpected loose action {action!r}")

    def _schedule_message(self, conn: _Connection, sender: str, msg, now: float) -> None:
        receiver = conn.other(sender)
        start = max(now, conn.busy_until[sender])
        arrival = start + transmission_size(msg) / self.scenario.bandwidth_bytes_per_sec
        conn.busy_until[sender] = arrival
        if isinstance(msg, PayloadMsg):
            key = (sender, msg.payload.id)
            self.locked[key] = conn.conn_id
            conn.locks.append(key)
        self._push(arrival, _PRIO_MSG, "msg", (conn.conn_id, sender, receiver, msg))

    def _adopt_ack(self, node: str, ack: Ack) -> None:
        self.node_ack[node] = ack
        if node != self.scenario.destination:
            for entry in self.stores[node].apply_ack_entries(ack):
                self._lose(entry.payload.id, entry.meta.copy_count)

    def _on_payload_arrival(self, conn: _Connection, sender: str, receiver: str, msg: PayloadMsg, now: float) -> None:
        pid = msg.payload.id
        key = (sender, pid)
        if self.locked.get(key) == conn.conn_id:
            del self.locked[key]
            conn.locks.remove(key)
        conn.pending[receiver].discard(pid)
        self.relay_transmissions += 1
        self.bytes_relayed += msg.payload.size_bytes

        receiving, sending = conn.engines[receiver], conn.engines[sender]
        receiver_actions = receiving.step(MessageReceived(msg), now)
        sender_actions = sending.step(TransferFinished(pid), now)
        for engine in (receiving, sending):
            if engine.violation is not None:
                self._check_engine(engine, now)
        accepts = [a for a in receiver_actions if isinstance(a, AcceptPayload)]
        commits = [a for a in sender_actions if isinstance(a, CommitRelay)]
        self._settle_transfer(sender, receiver, msg, bool(accepts), commits, now)
        self._apply_actions(conn, receiver, [a for a in receiver_actions if not isinstance(a, AcceptPayload)], now)
        self._apply_actions(conn, sender, [a for a in sender_actions if not isinstance(a, CommitRelay)], now)
        self._after_step(conn, receiver, now)
        self._after_step(conn, sender, now)

    def _settle_transfer(
        self,
        sender: str,
        receiver: str,
        msg: PayloadMsg,
        receiver_accepts: bool,
        commits: list[CommitRelay],
        now: float,
    ) -> None:
        pid = msg.payload.id
        if receiver == self.scenario.destination:
            # Direct delivery: the sender keeps its replica and budget untouched.
            if receiver_accepts and not msg.payload.expired(now):
                if ingest(msg.payload, now, self.dest_state) is IngestResult.NEW:
                    self._maybe_mark_base_delivery(pid, now)
            return
        moved = msg.meta_for_receiver.copy_count
        sender_store = self.stores[sender]
        sender_present = pid in sender_store
        if commits and sender_present:
            sender_store.update_copy_count(pid, commits[0].sender_keeps)
        stored = False
        if receiver_accepts and pid not in self.node_ack[receiver].delivered_ids:
            entry = StoredEntry(msg.payload, msg.meta_for_receiver)
            stored = self.stores[receiver].insert(entry, now) is InsertResult.STORED
        # Copies only vanish through TTL/ACK; keep the ledger exact in the
        # racy corners (mid-flight deletion, arrival after ack/expiry).
        if sender_present and not stored:
            self._lose(pid, moved)
        elif not sender_present and stored:
            self._lose(pid, -moved)

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

    def _after_step(self, conn: _Connection, node: str, now: float) -> None:
        if not conn.alive:
            return
        engine = conn.engines[node]
        if engine.state.phase is not Phase.DONE:
            return
        if not engine.state.graceful:
            self._teardown(conn, now)
            return
        if node not in conn.graceful_recorded:
            conn.graceful_recorded.add(node)
            self.recents[node].record_graceful(conn.other(node), now)
        if all(e.state.phase is Phase.DONE and e.state.graceful for e in conn.engines.values()):
            self._close(conn)

    def _teardown(self, conn: _Connection, now: float) -> None:
        """Abrupt end: in-flight data is lost, nothing remembered."""
        if not conn.alive:
            return
        conn.alive = False
        for node in (conn.a, conn.b):
            engine = conn.engines[node]
            if engine.state.phase is not Phase.DONE:
                engine.step(LinkDown(), now)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        conn.alive = False
        for key in conn.locks:
            self.locked.pop(key, None)
        conn.locks.clear()
        conn.pending[conn.a].clear()
        conn.pending[conn.b].clear()
        self.conns.pop(conn.conn_id, None)
        if self.conns_by_pair.get((conn.a, conn.b)) == conn.conn_id:
            del self.conns_by_pair[(conn.a, conn.b)]

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
