"""Contact traces: text parsing, synthetic generation, top-contact removal.

Trace text is one event per line, ``<time> CONN <id1> <id2> <up|down>``,
with ``#`` comments — the same line shape the usual DTN trace readers take,
so recorded traces load directly.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .model import InvalidNodeIdError, validate_node_id


class TraceError(ValueError):
    """Malformed trace text or broken up/down pairing; ``event`` is the
    contact event a pairing rule broke at."""

    def __init__(self, message: str, event: ContactEvent | None = None):
        super().__init__(message)
        self.event = event


class ContactKind(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ContactEvent:
    time: float
    kind: ContactKind
    node_a: str
    node_b: str

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise TraceError(f"non-finite or negative time {self.time!r}")
        try:
            validate_node_id(self.node_a)
            validate_node_id(self.node_b)
        except InvalidNodeIdError as exc:
            raise TraceError(str(exc)) from exc
        if self.node_a == self.node_b:
            raise TraceError(f"self-contact for node {self.node_a!r} at t={self.time}")
        # Canonical pair order keeps pairing checks and tie-breaks stable.
        if self.node_a > self.node_b:
            a, b = self.node_b, self.node_a
            object.__setattr__(self, "node_a", a)
            object.__setattr__(self, "node_b", b)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.node_a, self.node_b)


def _sort_events(events: list[ContactEvent]) -> list[ContactEvent]:
    # Down sorts before Up at equal times so a contact can close and reopen
    # at the same instant.
    events.sort(key=lambda e: (e.time, 0 if e.kind is ContactKind.DOWN else 1, e.node_a, e.node_b))
    return events


def check_pairing(events: Iterable[ContactEvent]) -> None:
    """Raise ``TraceError`` at the first nested up, zero-length contact (an
    up and a down of one pair at one time), or down without an up before it,
    taking ``events`` (in any order) by time with downs first at equal times,
    the order a simulation handles them. So a contact may end and the next
    one of the pair begin at the same time, and a pair still up at
    end-of-trace is fine: the contact outlives the log."""
    up = ContactKind.UP
    open_pairs: set[tuple[str, str]] = set()
    ordered = sorted(events, key=lambda e: (e.time, e.kind is up))
    for event in ordered:
        pair = (event.node_a, event.node_b)
        if event.kind is up:
            if pair in open_pairs:
                raise TraceError(f"nested up for pair {pair} at t={event.time}", event)
            open_pairs.add(pair)
        elif pair in open_pairs:
            open_pairs.remove(pair)
        elif any(e.time == event.time and e.kind is up and e.pair == pair for e in ordered):
            raise TraceError(f"zero-length contact for pair {pair} at t={event.time}: "
                             "it goes up and down at the same time", event)
        else:
            raise TraceError(f"down without up for pair {pair} at t={event.time}", event)


def _event_lines(text: str):
    """(line number, line, stripped line) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line


def parse_trace(text: str) -> list[ContactEvent]:
    """Parse, sort, and validate a trace; errors carry the offending line number."""
    events: list[ContactEvent] = []
    for lineno, raw, line in _event_lines(text):
        fields = line.split()
        if len(fields) != 5 or fields[1] != "CONN" or fields[4] not in ("up", "down"):
            raise TraceError(f"line {lineno}: expected '<time> CONN <id1> <id2> <up|down>', got {raw!r}")
        try:
            time = float(fields[0])
        except ValueError:
            raise TraceError(f"line {lineno}: bad time {fields[0]!r}") from None
        try:
            events.append(ContactEvent(time, ContactKind(fields[4]), fields[2], fields[3]))
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    try:
        check_pairing(events)
    except TraceError as exc:
        # The k-th event came from the k-th event line.
        lineno = next(n for e, (n, _, _) in zip(events, _event_lines(text)) if e is exc.event)
        raise TraceError(f"line {lineno}: {exc}", exc.event) from None
    return _sort_events(events)


def format_trace(events: Iterable[ContactEvent]) -> str:
    lines = []
    for e in events:
        t = int(e.time) if float(e.time).is_integer() else e.time
        lines.append(f"{t} CONN {e.node_a} {e.node_b} {e.kind.value}")
    return "\n".join(lines) + ("\n" if lines else "")


def trace_nodes(events: Iterable[ContactEvent]) -> set[str]:
    nodes: set[str] = set()
    for e in events:
        nodes.add(e.node_a)
        nodes.add(e.node_b)
    return nodes


def contact_counts(events: Iterable[ContactEvent]) -> dict[str, int]:
    """Number of contacts (up events) each node participates in."""
    counts: dict[str, int] = {}
    for e in events:
        if e.kind is ContactKind.UP:
            counts[e.node_a] = counts.get(e.node_a, 0) + 1
            counts[e.node_b] = counts.get(e.node_b, 0) + 1
    return counts


def check_synthetic_trace(nodes: int, duration: int, mean_intercontact: float,
                          mean_contact_duration: float) -> list[tuple[str, str]]:
    """The rules ``generate_synthetic_trace`` holds its parameters to, as
    (parameter, message) pairs for each one broken; empty when all hold."""
    problems = []
    if nodes < 3:
        problems.append(("nodes", f"need at least 3 nodes, got {nodes}"))
    if not (math.isfinite(duration) and duration >= 0):
        problems.append(("duration", "must be finite and >= 0"))
    for param, mean in (("mean_intercontact", mean_intercontact),
                        ("mean_contact_duration", mean_contact_duration)):
        if not (math.isfinite(mean) and mean > 0):
            problems.append((param, f"must be finite and positive, got {mean}"))
    return problems


def generate_synthetic_trace(
    nodes: int,
    duration: int,
    mean_intercontact: float,
    mean_contact_duration: float,
    seed: int,
    excluded_pairs: Iterable[tuple[str, str]] = (),
) -> list[ContactEvent]:
    """Exponential inter-contact / contact-duration sampling per node pair.

    Node ids are n00, n01, ...; the same seed always yields the same trace.
    ``excluded_pairs`` never meet (e.g. far-apart static endpoints).
    """
    problems = check_synthetic_trace(nodes, duration, mean_intercontact, mean_contact_duration)
    if problems:
        raise ValueError("; ".join(f"{param}: {message}" for param, message in problems))
    excluded = {tuple(sorted(p)) for p in excluded_pairs}
    rng = random.Random(seed)
    names = [f"n{i:02d}" for i in range(nodes)]
    events: list[ContactEvent] = []
    for i in range(nodes):
        for j in range(i + 1, nodes):
            a, b = names[i], names[j]
            if (a, b) in excluded:
                continue
            t = 0.0
            while True:
                start = t + rng.expovariate(1.0 / mean_intercontact)
                if start >= duration:
                    break
                length = max(1.0, rng.expovariate(1.0 / mean_contact_duration))
                end = min(start + length, float(duration))
                start_i, end_i = int(start), int(end)
                if end_i > start_i:
                    events.append(ContactEvent(start_i, ContactKind.UP, a, b))
                    events.append(ContactEvent(end_i, ContactKind.DOWN, a, b))
                t = end
    return _sort_events(events)


def remove_top_nodes(
    events: list[ContactEvent], k: int, protected: Iterable[str]
) -> list[ContactEvent]:
    """Drop the k most-contacted unprotected nodes and all their events."""
    if k < 0:
        raise ValueError(f"removal count must be >= 0, got {k}")
    if k == 0:
        return list(events)
    protected_set = set(protected)
    counts = contact_counts(events)
    candidates = sorted(
        (node for node in counts if node not in protected_set),
        key=lambda n: (-counts[n], n),
    )
    removed = set(candidates[:k])
    return [e for e in events if e.node_a not in removed and e.node_b not in removed]
