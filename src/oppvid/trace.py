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
    """Malformed trace text or broken up/down pairing."""


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


def _check_pairing(events: list[ContactEvent]) -> None:
    # A pair still up at end-of-trace is fine (the contact outlives the log);
    # a down without a preceding up, or a nested up, is not.
    open_pairs: set[tuple[str, str]] = set()
    for event in events:
        if event.kind is ContactKind.UP:
            if event.pair in open_pairs:
                raise TraceError(f"nested up for pair {event.pair} at t={event.time}")
            open_pairs.add(event.pair)
        else:
            if event.pair not in open_pairs:
                raise TraceError(f"down without up for pair {event.pair} at t={event.time}")
            open_pairs.remove(event.pair)


def parse_trace(text: str) -> list[ContactEvent]:
    """Parse, sort, and validate a trace; errors carry the offending line number."""
    events: list[ContactEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5 or fields[1] != "CONN" or fields[4] not in ("up", "down"):
            raise TraceError(f"line {lineno}: expected '<time> CONN <id1> <id2> <up|down>', got {raw!r}")
        try:
            time = float(fields[0])
        except ValueError:
            raise TraceError(f"line {lineno}: bad time {fields[0]!r}") from None
        if not math.isfinite(time):
            raise TraceError(f"line {lineno}: non-finite time {fields[0]!r}")
        if time < 0:
            raise TraceError(f"line {lineno}: negative time {time}")
        try:
            a = validate_node_id(fields[2])
            b = validate_node_id(fields[3])
        except InvalidNodeIdError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        events.append(ContactEvent(time, ContactKind(fields[4]), a, b))
    _sort_events(events)
    _check_pairing(events)
    return events


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


def synthetic_node_name(index: int) -> str:
    return f"n{index:02d}"


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
    if nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {nodes}")
    if duration < 0 or mean_intercontact <= 0 or mean_contact_duration <= 0:
        raise ValueError("duration must be >= 0 and means positive")
    excluded = {tuple(sorted(p)) for p in excluded_pairs}
    rng = random.Random(seed)
    names = [synthetic_node_name(i) for i in range(nodes)]
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
    _sort_events(events)
    _check_pairing(events)
    return events


def remove_top_nodes(
    events: list[ContactEvent], k: int, protected: Iterable[str]
) -> list[ContactEvent]:
    """Drop the k most-contacted unprotected nodes and all their events."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
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
