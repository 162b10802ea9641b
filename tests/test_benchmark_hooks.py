"""The benchmark's tracer wraps oppvid's functions by the names they are looked
up by; a rename would silently zero its per-layer metrics. Load it as it is
and check that every wrap point still exists and its observers still work."""
from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import random_scenario

from oppvid import adaptation, cli, destination, protocol, sim, store, trace, wire
from oppvid.sim import AdaptiveSvc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_point_and_sees_the_history():
    scenario = next(s for s in map(random_scenario, range(100)) if isinstance(s.mode, AdaptiveSvc))
    segments = len(sim.run(scenario).segments)
    assert segments > 0
    ov = SimpleNamespace(adaptation=adaptation, cli=cli, destination=destination, protocol=protocol,
                         sim=sim, store=store, trace=trace, wire=wire)
    tracer = _load_tracer().Tracer(ov)
    tracer.install()
    try:
        assert tracer.missing == []
        sim.run(scenario)
    finally:
        tracer.uninstall()
    assert sim.record_transmission is adaptation.record_transmission
    assert tracer.calls[tracer.index["adaptation.record_transmission"]] == segments
    assert tracer.maxima["history_len"] == segments


# Work counts of random_scenario(5) under the tracer. A refactor of the event
# path keeps every store and destination change, so those must not move;
# sweeps may only get fewer. Engine steps, inventory reads, message sizing
# and message events are the event path's own work: contacts that move no
# payload are settled at link-up without their 8 messages unless an event of
# their own two nodes or an ACK tick can interleave, and size each node's ACK
# and INVENTORY only when that Ack or inventory list is new.
PINNED_CALLS = {"protocol.step": 403, "wire.transmission_size": 444, "wire.encoded_size": 444,
                "store.inventory": 423, "store.insert": 74, "store.update_copy_count": 36,
                "store.apply_ack_entries": 109, "destination.ingest": 30}
PINNED_EVENTS = {"msg": 277, "up": 212, "down": 212, "segment": 19, "ack": 20}
PINNED_SWEEPS, PINNED_EXPIRED = 21, 42


def test_traced_layer_counts_match_the_pinned_ones():
    ov = SimpleNamespace(adaptation=adaptation, cli=cli, destination=destination, protocol=protocol,
                         sim=sim, store=store, trace=trace, wire=wire)
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(ov)
    tracer.install()
    try:
        sim.run(random_scenario(5))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert {name: tracer.calls[tracer.index[name]] for name in PINNED_CALLS} == PINNED_CALLS
    assert dict(zip(tracer_module.EVENT_KINDS, tracer.event_calls)) == PINNED_EVENTS
    assert tracer.calls[tracer.index["store.expire_entries"]] <= PINNED_SWEEPS
    assert tracer.counts["expired"] == PINNED_EXPIRED
