"""Spans around the calls into oppvid's layers, installed from outside the program.

Every function is wrapped at the name it is looked up by: ``oppvid.sim`` and
``oppvid.cli`` bind their collaborators into their own namespaces, ``NodeStore``
and ``ConnectionEngine.step`` are patched on the class, and
``wire.transmission_size`` reaches ``oppvid.wire.encoded_size`` through that
module's globals. A span's self time is its duration minus its child spans.
Per-event-kind time comes from the public ``on_event`` hook of the simulator.

Spans are kept in memory (an ``array`` per run phase) and written out at the
end; the wrapping itself slows the program, which the benchmark reports as
``tracing.overhead_ratio``.
"""
from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

_ns = time.perf_counter_ns

# (metric prefix, where it is looked up, attribute). Two targets may share a
# prefix when the program and the benchmark look the same function up in two
# places; their spans then add up.
_TARGETS = (
    ("sim.run", "sim", "run"),
    ("sim.run", "cli", "run"),
    ("sim.verify_global_invariants", "sim", "verify_global_invariants"),
    ("wire.transmission_size", "sim", "transmission_size"),
    ("wire.encoded_size", "wire", "encoded_size"),
    ("protocol.step", "protocol.ConnectionEngine", "step"),
    ("protocol.should_connect", "sim", "should_connect"),
    ("store.insert", "store.NodeStore", "insert"),
    ("store.expire_entries", "store.NodeStore", "expire_entries"),
    ("store.update_copy_count", "store.NodeStore", "update_copy_count"),
    ("store.inventory", "store.NodeStore", "inventory"),
    ("store.apply_ack_entries", "store.NodeStore", "apply_ack_entries"),
    ("adaptation.plan_layers", "sim", "plan_layers"),
    ("adaptation.record_transmission", "sim", "record_transmission"),
    ("adaptation.package_segment", "sim", "package_segment"),
    ("destination.ingest", "sim", "ingest"),
    ("destination.generate_ack", "sim", "generate_ack"),
    ("destination.decodable_quality", "sim", "decodable_quality"),
    ("trace.parse_trace", "cli", "parse_trace"),
    ("trace.parse_trace", "trace", "parse_trace"),
    ("trace.generate_synthetic_trace", "cli", "generate_synthetic_trace"),
    ("trace.generate_synthetic_trace", "trace", "generate_synthetic_trace"),
    ("trace.remove_top_nodes", "cli", "remove_top_nodes"),
    ("cli.run_experiment", "cli", "run_experiment"),
    ("cli.validate_config", "cli", "validate_config"),
)
FUNCTIONS = tuple(dict.fromkeys(prefix for prefix, _, _ in _TARGETS))
EVENT_KINDS = ("msg", "up", "down", "segment", "ack")

# Every metric a traced run reports, with its unit.
PER_LAYER_METRICS: dict[str, str] = {}
for _name in FUNCTIONS:
    PER_LAYER_METRICS[f"{_name}.calls"] = "count"
    PER_LAYER_METRICS[f"{_name}.self_s"] = "s"
PER_LAYER_METRICS["sim.events"] = "count"
for _kind in EVENT_KINDS:
    PER_LAYER_METRICS[f"sim.event.{_kind}.s"] = "s"
    PER_LAYER_METRICS[f"sim.event.{_kind}.self_s"] = "s"
PER_LAYER_METRICS.update({
    "wire.ack_ids_sized": "count",
    "wire.control_byte_share": "ratio",
    "protocol.transfer_yield": "ratio",
    "protocol.should_connect.refused_ratio": "ratio",
    "store.insert.stored_ratio": "ratio",
    "store.expired": "count",
    "store.inventory.entries": "count",
    "store.apply_ack_entries.removed_ratio": "ratio",
    "adaptation.history_len.max": "count",
    "destination.ingest.new_ratio": "ratio",
    "destination.ack_ids.max": "count",
    "tracing.overhead_ratio": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class PhaseStats:
    """What one phase (set-up, or one pass) recorded: calls, self time, work counts, spans."""

    def __init__(self, tracer: Tracer, keep_spans: bool):
        self.calls = list(tracer.calls)
        self.self_ns = list(tracer.self_ns)
        self.counts = dict(tracer.counts)
        self.maxima = dict(tracer.maxima)
        self.event_calls = list(tracer.event_calls)
        self.event_ns = list(tracer.event_ns)
        self.event_self_ns = list(tracer.event_self_ns)
        self.spans = array("q", tracer.spans if keep_spans else ())

    def work(self) -> tuple:
        """Everything that must repeat exactly when the same inputs run again."""
        return (tuple(self.calls), tuple(sorted(self.counts.items())),
                tuple(sorted(self.maxima.items())), tuple(self.event_calls))


class Tracer:
    def __init__(self, ov: SimpleNamespace):
        self.ov = ov
        self.index = {name: i for i, name in enumerate(FUNCTIONS)}
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        n, kinds = len(FUNCTIONS), len(EVENT_KINDS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.counts: dict[str, int] = dict.fromkeys(
            ("payloads_completed", "payloads_scheduled", "bytes_on_air", "payload_bytes", "ack_ids_sized",
             "connect_refused", "inserts_stored", "expired", "inventory_entries", "ack_removed", "ack_held",
             "ingest_new"), 0)
        self.maxima: dict[str, int] = {"history_len": 0, "ack_ids": 0}
        self.event_calls = [0] * kinds
        self.event_ns = [0] * kinds
        self.event_self_ns = [0] * kinds
        # Five columns per span: span id, parent span id (0 = none), function
        # index, start ns, end ns.
        self.spans = array("q")
        self.stack = [[0, 0]]  # [span id, child ns] per open span
        self._ids = [0]

    def end_phase(self, keep_spans: bool) -> PhaseStats:
        """Snapshot what was recorded since the last call, then start from zero."""
        stats = PhaseStats(self, keep_spans)
        for values in (self.calls, self.self_ns, self.event_calls, self.event_ns, self.event_self_ns):
            values[:] = [0] * len(values)
        for table in (self.counts, self.maxima):
            for key in table:
                table[key] = 0
        del self.spans[:]
        return stats

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        idx = self.index[name]
        ids, stack, calls, self_ns, spans = self._ids, self.stack, self.calls, self.self_ns, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            ids[0] += 1
            frame = [ids[0], 0]
            stack.append(frame)
            start = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                calls[idx] += 1
                self_ns[idx] += end - start - frame[1]
                spans.extend((frame[0], parent[0], idx, start, end))
                parent[1] += end - start
            if observe is not None:
                t = _ns()
                observe(args, result)
                parent[1] += _ns() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def _event_hook(self):
        """An ``on_event`` hook that splits the event loop's time by event kind,
        and a wrapper for ``Simulator.run`` that marks where the loop starts.

        An event's time is the interval since the previous callback (or since
        the loop started) minus the invariant checks in it; its self time also
        leaves out every other span. Building the ``Simulator`` comes before
        the loop, so it counts in ``sim.run``'s self time and in no event kind.
        """
        stack, self_ns = self.stack, self.self_ns
        event_calls, event_ns, event_self_ns = self.event_calls, self.event_ns, self.event_self_ns
        verify = self.index["sim.verify_global_invariants"]
        kinds = {kind: i for i, kind in enumerate(EVENT_KINDS)}
        state = {}

        def hook(sim, kind, when, data):
            now = _ns()
            frame = state["frame"]
            interval = now - state["last"]
            k = kinds[kind]
            event_calls[k] += 1
            event_ns[k] += interval - (self_ns[verify] - state["verify"])
            event_self_ns[k] += interval - (frame[1] - state["child"])
            end = _ns()
            frame[1] += end - now  # the hook's own cost is tracing, not the loop's
            state["child"] = frame[1]
            state["verify"] = self_ns[verify]
            state["last"] = end

        def start_loop(loop):
            def run_loop(sim):
                frame = stack[-1]
                state.update(frame=frame, child=frame[1], verify=self_ns[verify], last=_ns())
                return loop(sim)
            return run_loop

        return hook, start_loop

    def _wrap_run(self, name: str, fn, hook):
        """``sim.run`` with the event hook installed."""
        counts = self.counts

        def run(scenario, check_invariants=False, on_event=None):
            return fn(scenario, check_invariants=check_invariants, on_event=hook)

        def completed(args, metrics):
            counts["payloads_completed"] += metrics.relay_transmissions

        return self._wrap(name, run, completed)

    def _observers(self) -> dict:
        """Work counts taken from each call's arguments and result."""
        counts, maxima = self.counts, self.maxima
        payload_msg, ack_msg = self.ov.wire.PayloadMsg, self.ov.wire.AckMsg

        def transmission(args, size):
            counts["bytes_on_air"] += size
            msg = args[0]
            if isinstance(msg, payload_msg):
                counts["payloads_scheduled"] += 1
                counts["payload_bytes"] += msg.payload.size_bytes

        def encoded(args, size):
            if isinstance(args[0], ack_msg):
                counts["ack_ids_sized"] += len(args[0].ack.delivered_ids)

        def connect(args, ok):
            if not ok:
                counts["connect_refused"] += 1

        def insert(args, result):
            if result.value == "stored":
                counts["inserts_stored"] += 1

        def expire(args, removed):
            counts["expired"] += len(removed)

        def inventory(args, items):
            counts["inventory_entries"] += len(items)

        def apply_ack(args, removed):
            counts["ack_removed"] += len(removed)
            counts["ack_held"] += len(args[0]) + len(removed)

        def history(args, records):
            maxima["history_len"] = max(maxima["history_len"], len(records))

        def ack(args, result):
            maxima["ack_ids"] = max(maxima["ack_ids"], len(result.delivered_ids))

        def ingest(args, result):
            if result.value == "new":
                counts["ingest_new"] += 1

        return {
            "wire.transmission_size": transmission,
            "wire.encoded_size": encoded,
            "protocol.should_connect": connect,
            "store.insert": insert,
            "store.expire_entries": expire,
            "store.inventory": inventory,
            "store.apply_ack_entries": apply_ack,
            "adaptation.record_transmission": history,
            "destination.generate_ack": ack,
            "destination.ingest": ingest,
        }

    def _replace(self, where: str, attr: str, make) -> None:
        """Set ``where.attr`` to ``make(original)``; list it in ``missing`` if the program lacks it."""
        owner = self.ov
        for part in where.split("."):
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{where}.{attr}")
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in ``missing``."""
        observers = self._observers()
        hook, start_loop = self._event_hook()
        self._replace("sim.Simulator", "run", start_loop)
        for name, where, attr in _TARGETS:
            if name == "sim.run":
                self._replace(where, attr, lambda fn, name=name: self._wrap_run(name, fn, hook))
            else:
                self._replace(where, attr, lambda fn, name=name: self._wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def per_layer_metrics(setup: PhaseStats, passes: list[PhaseStats], overhead: float) -> dict[str, float]:
    """Counts from set-up plus one pass; self times from set-up plus the median pass."""
    first = passes[0]

    def seconds(get) -> float:
        return (get(setup) + statistics.median(get(p) for p in passes)) / 1e9

    out: dict[str, float] = {}
    for i, name in enumerate(FUNCTIONS):
        out[f"{name}.calls"] = setup.calls[i] + first.calls[i]
        out[f"{name}.self_s"] = seconds(lambda p, i=i: p.self_ns[i])
    out["sim.events"] = sum(first.event_calls)
    for k, kind in enumerate(EVENT_KINDS):
        out[f"sim.event.{kind}.s"] = seconds(lambda p, k=k: p.event_ns[k])
        out[f"sim.event.{kind}.self_s"] = seconds(lambda p, k=k: p.event_self_ns[k])
    c = {key: setup.counts[key] + first.counts[key] for key in first.counts}
    calls = dict(zip(FUNCTIONS, (a + b for a, b in zip(setup.calls, first.calls))))
    out.update({
        "wire.ack_ids_sized": c["ack_ids_sized"],
        "wire.control_byte_share": _ratio(c["bytes_on_air"] - c["payload_bytes"], c["bytes_on_air"]),
        "protocol.transfer_yield": _ratio(c["payloads_completed"], c["payloads_scheduled"]),
        "protocol.should_connect.refused_ratio": _ratio(c["connect_refused"], calls["protocol.should_connect"]),
        "store.insert.stored_ratio": _ratio(c["inserts_stored"], calls["store.insert"]),
        "store.expired": c["expired"],
        "store.inventory.entries": c["inventory_entries"],
        "store.apply_ack_entries.removed_ratio": _ratio(c["ack_removed"], c["ack_held"]),
        "adaptation.history_len.max": max(setup.maxima["history_len"], first.maxima["history_len"]),
        "destination.ingest.new_ratio": _ratio(c["ingest_new"], calls["destination.ingest"]),
        "destination.ack_ids.max": max(setup.maxima["ack_ids"], first.maxima["ack_ids"]),
        "tracing.overhead_ratio": overhead,
    })
    return out


def write_spans(path: Path, phases: list[tuple[str, PhaseStats]]) -> None:
    """Tab-separated spans: phase, span id, parent id, function, start ns, end ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("phase\tspan\tparent\tfunction\tstart_ns\tend_ns\n")
        for label, stats in phases:
            s = stats.spans
            for j in range(0, len(s), 5):
                fh.write(f"{label}\t{s[j]}\t{s[j + 1]}\t{FUNCTIONS[s[j + 2]]}\t{s[j + 3]}\t{s[j + 4]}\n")
