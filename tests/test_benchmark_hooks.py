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
