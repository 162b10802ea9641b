"""Per-node payload storage: insertion, TTL expiry, ACK-driven deletion."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .model import Ack, Payload, PayloadId, RelayMetadata


class MissingPayloadError(KeyError):
    """Raised when touching a payload id the store does not hold."""


class InsertResult(Enum):
    STORED = "stored"
    DUPLICATE = "duplicate"
    EXPIRED = "expired"


@dataclass(frozen=True)
class StoredEntry:
    payload: Payload
    meta: RelayMetadata


class ChangeLog:
    """What the stores of one checked world changed since the last check:
    the payload ids their mutators touched, and the stores whose
    ``last_sweep_at`` moved."""

    __slots__ = ("ids", "swept")

    def __init__(self):
        self.ids: set[PayloadId] = set()
        self.swept: set[NodeStore] = set()


class NodeStore:
    """Storage module of a single node.

    Expiry is lazy: nothing leaves the store except through explicit
    ``expire_entries(now)`` sweeps or ``apply_ack_entries``. A duplicate
    insert keeps the existing entry untouched (copy counts are never merged).

    ``changes``, when given, is shared by every store of one checked world
    and records what each mutator changed; unchecked stores record nothing.
    """

    def __init__(self, changes: ChangeLog | None = None):
        self._entries: dict[PayloadId, StoredEntry] = {}
        # (expiry_time, canonical id) min-heap; items whose id an ACK has
        # since removed are stale and skipped on pop.
        self._expiry_heap: list[tuple[int, str, PayloadId]] = []
        self.last_sweep_at: float = 0.0
        self._changes = changes
        # inventory() as last built; None once an entry or copy count changes.
        self._inventory: list[tuple[PayloadId, int]] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pid: PayloadId) -> bool:
        return pid in self._entries

    def get(self, pid: PayloadId) -> StoredEntry | None:
        return self._entries.get(pid)

    def ids(self) -> set[PayloadId]:
        return set(self._entries)

    def insert(self, entry: StoredEntry, now: float) -> InsertResult:
        if self._changes is not None:
            # Noted whatever the result: callers register the id's copy
            # budget right after inserting it.
            self._changes.ids.add(entry.payload.id)
        if entry.payload.expired(now):
            return InsertResult.EXPIRED
        if entry.payload.id in self._entries:
            return InsertResult.DUPLICATE
        self._entries[entry.payload.id] = entry
        self._inventory = None
        expiry = entry.payload.created_at + entry.payload.ttl_seconds
        heapq.heappush(self._expiry_heap, (expiry, entry.payload.id.canonical, entry.payload.id))
        return InsertResult.STORED

    def next_expiry(self) -> float:
        """Earliest expiry of a held entry (``inf`` if none); a sweep at or
        before it removes nothing. Drops the stale heads it passes."""
        heap, entries = self._expiry_heap, self._entries
        while heap and heap[0][2] not in entries:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def expire_entries(self, now: float) -> list[StoredEntry]:
        """Remove every entry whose TTL has elapsed; returns the removed entries."""
        changes = self._changes
        if changes is not None and now != self.last_sweep_at:
            changes.swept.add(self)
        self.last_sweep_at = now
        removed: list[StoredEntry] = []
        while self._expiry_heap and self._expiry_heap[0][0] < now:
            _, _, pid = heapq.heappop(self._expiry_heap)
            entry = self._entries.pop(pid, None)
            if entry is not None:
                removed.append(entry)
                if changes is not None:
                    changes.ids.add(pid)
        if removed:
            self._inventory = None
        return removed

    def apply_ack_entries(self, ack: Ack) -> list[StoredEntry]:
        """Drop every stored payload the destination has acknowledged; returns their entries."""
        if not ack.delivered_ids:
            return []
        removed = [e for pid, e in self._entries.items() if pid in ack.delivered_ids]
        if removed:
            self._inventory = None
        for entry in removed:
            del self._entries[entry.payload.id]
        if self._changes is not None:
            self._changes.ids.update(e.payload.id for e in removed)
        return removed

    def inventory(self) -> list[tuple[PayloadId, int]]:
        """Stored ids with copy counts, highest copy count first, ties by id.

        The list is built once per change to the store and shared by every
        caller until the next one, so callers must not mutate it.
        """
        items = self._inventory
        if items is None:
            items = [(pid, e.meta.copy_count) for pid, e in self._entries.items()]
            items.sort(key=lambda t: (-t[1], t[0].canonical))
            self._inventory = items
        return items

    def update_copy_count(self, pid: PayloadId, new_count: int) -> None:
        if new_count < 1:
            raise ValueError(f"copy count must stay >= 1, got {new_count}")
        entry = self._entries.get(pid)
        if entry is None:
            raise MissingPayloadError(f"payload not stored: {pid}")
        if self._changes is not None:
            self._changes.ids.add(pid)
        if new_count != entry.meta.copy_count:
            self._entries[pid] = StoredEntry(
                entry.payload, RelayMetadata(new_count, entry.meta.traversed_nodes)
            )
            self._inventory = None
