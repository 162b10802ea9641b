import pytest
from hypothesis import given, strategies as st

from oppvid.model import Ack
from oppvid.store import InsertResult, MissingPayloadError, NodeStore, StoredEntry

from conftest import meta, payload, pid, sorted_inventory


def entry(source="n0", segment=0, layer=0, size=1000, created_at=0, ttl=86400, copies=8):
    return StoredEntry(payload(source, segment, layer, size, created_at, ttl), meta(copies, (source,)))


def test_insert_fresh_is_stored():
    store = NodeStore()
    assert store.insert(entry(), now=0) is InsertResult.STORED
    assert len(store) == 1


def test_insert_same_id_twice_is_duplicate():
    store = NodeStore()
    first = entry(copies=8)
    second = StoredEntry(first.payload, meta(2, ("n0",)))
    store.insert(first, now=0)
    assert store.insert(second, now=0) is InsertResult.DUPLICATE
    # the existing entry is untouched: copy counts never merge
    assert store.get(first.payload.id).meta.copy_count == 8


def test_insert_expired_is_rejected():
    store = NodeStore()
    e = entry(created_at=0, ttl=3600)
    assert store.insert(e, now=3601) is InsertResult.EXPIRED
    assert len(store) == 0


def test_next_expiry_is_the_earliest_queued_expiry():
    store = NodeStore()
    assert store.next_expiry() == float("inf")
    store.insert(entry(segment=1, created_at=0, ttl=200), now=0)
    store.insert(entry(segment=2, created_at=0, ttl=100), now=0)
    assert store.next_expiry() == 100
    assert store.expire_entries(100) == []  # alive at exactly created_at + ttl
    assert len(store.expire_entries(101)) == 1
    assert store.next_expiry() == 200


def test_expire_removes_only_elapsed():
    store = NodeStore()
    p1 = entry(segment=1, created_at=0, ttl=100)
    p2 = entry(segment=2, created_at=0, ttl=200)
    store.insert(p1, now=0)
    store.insert(p2, now=0)
    assert [e.payload.id for e in store.expire_entries(now=150)] == [p1.payload.id]
    assert store.ids() == {p2.payload.id}


def test_expire_nothing_before_deadlines():
    store = NodeStore()
    store.insert(entry(segment=1, ttl=100), now=0)
    store.insert(entry(segment=2, ttl=200), now=0)
    assert store.expire_entries(now=50) == []


def test_expire_everything_after_deadlines():
    store = NodeStore()
    p1 = entry(segment=1, ttl=100)
    p2 = entry(segment=2, ttl=200)
    store.insert(p1, now=0)
    store.insert(p2, now=0)
    assert sorted((e.payload.id for e in store.expire_entries(now=250)), key=str) == sorted([p1.payload.id, p2.payload.id], key=str)
    assert len(store) == 0


def test_apply_ack_removes_only_acked():
    store = NodeStore()
    p1, p2 = entry(segment=1), entry(segment=2)
    store.insert(p1, now=0)
    store.insert(p2, now=0)
    ack = Ack("dst", 100, frozenset({p2.payload.id, pid("n9", 9, 9)}))
    assert [e.payload.id for e in store.apply_ack_entries(ack)] == [p2.payload.id]
    assert store.ids() == {p1.payload.id}


def test_apply_empty_ack_is_identity():
    store = NodeStore()
    store.insert(entry(), now=0)
    assert store.apply_ack_entries(Ack.empty("dst")) == []
    assert len(store) == 1


def test_apply_ack_on_empty_store():
    store = NodeStore()
    ack = Ack("dst", 100, frozenset({pid()}))
    assert store.apply_ack_entries(ack) == []


def test_inventory_sorted_by_copy_count_then_id():
    store = NodeStore()
    a, b, c = entry(segment=1, copies=4), entry(segment=2, copies=8), entry(segment=3, copies=1)
    for e in (a, b, c):
        store.insert(e, now=0)
    assert store.inventory() == [
        (b.payload.id, 8), (a.payload.id, 4), (c.payload.id, 1)
    ]


def test_inventory_empty_store():
    assert NodeStore().inventory() == []


def test_inventory_tie_broken_by_id():
    store = NodeStore()
    a, b = entry(segment=1, copies=2), entry(segment=2, copies=2)
    store.insert(b, now=0)
    store.insert(a, now=0)
    assert store.inventory() == [(a.payload.id, 2), (b.payload.id, 2)]


def test_update_copy_count():
    store = NodeStore()
    e = entry(copies=8)
    store.insert(e, now=0)
    store.update_copy_count(e.payload.id, 4)
    assert store.inventory() == [(e.payload.id, 4)]


def test_update_copy_count_missing_id():
    with pytest.raises(MissingPayloadError):
        NodeStore().update_copy_count(pid(), 2)


def test_update_copy_count_identity():
    store = NodeStore()
    e = entry(copies=8)
    store.insert(e, now=0)
    store.update_copy_count(e.payload.id, 8)
    assert store.get(e.payload.id).meta.copy_count == 8


def test_acked_id_never_listed_after_apply():
    store = NodeStore()
    e = entry()
    store.insert(e, now=0)
    store.apply_ack_entries(Ack("dst", 5, frozenset({e.payload.id})))
    assert all(i != e.payload.id for i, _ in store.inventory())


def test_inventory_is_rebuilt_after_each_change_and_kept_otherwise():
    store = NodeStore()
    a = entry(segment=1, ttl=100, copies=8)
    b = entry(segment=2, ttl=200, copies=4)
    c = entry(segment=3, ttl=300, copies=2)

    def unchanged_by(mutate):
        kept = store.inventory()
        mutate()
        assert store.inventory() is kept
        assert kept == sorted_inventory(store)

    def rebuilt_by(mutate):
        before = list(store.inventory())
        mutate()
        assert store.inventory() == sorted_inventory(store) != before

    rebuilt_by(lambda: store.insert(a, now=0))
    rebuilt_by(lambda: store.insert(b, now=0))
    unchanged_by(lambda: store.insert(StoredEntry(a.payload, meta(2, ("n0",))), now=0))
    unchanged_by(lambda: store.expire_entries(50))
    rebuilt_by(lambda: store.expire_entries(150))  # removes a
    unchanged_by(lambda: store.apply_ack_entries(Ack("dst", 5, frozenset({pid("n9", 9, 9)}))))
    rebuilt_by(lambda: store.insert(c, now=0))
    rebuilt_by(lambda: store.apply_ack_entries(Ack("dst", 6, frozenset({c.payload.id}))))
    unchanged_by(lambda: store.update_copy_count(b.payload.id, 4))
    rebuilt_by(lambda: store.update_copy_count(b.payload.id, 2))


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 500), st.integers(1, 16)),
        max_size=30,
    ),
    st.integers(0, 600),
)
def test_no_expired_entry_survives_a_sweep(specs, sweep_time):
    store = NodeStore()
    for segment, ttl, copies in specs:
        store.insert(entry(segment=segment, ttl=ttl, copies=copies), now=0)
    store.expire_entries(sweep_time)
    for pid in store.ids():
        assert not store.get(pid).payload.expired(sweep_time)
