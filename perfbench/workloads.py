"""The benchmark's three workloads: inputs from a seed, set-up, and one pass.

Each workload gives a different module most of the work (see README.md).
Inputs are plain data made from the seed; ``setup`` turns them into program
objects through whichever import of ``oppvid`` it is handed, so that set-up
can be repeated after a fresh import.

Outputs are checked against sha256 digests pinned in ``pinned.json`` for
each workload's ``input_sets`` input sets. A benchmark seed selects input set
``seed % input_sets``, so every seed runs checked inputs.
"""
from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# The program's own CPU seconds: an untraced run shares one CPU with the
# reference copy (see paired.py), so host time counts both.
cpu_clock = time.process_time
# ``reference_setup_s`` of each workload is the reference copy's median set-up
# CPU seconds, alone on one CPU of the machine the benchmark was built on
# (2-vCPU Xeon, Python 3.11.7) over input sets 0-2. It turns the measured
# ratio of set-up times into seconds; see paired.py.
TWO_WEEKS = 14 * 86_400
SOURCE, DESTINATION = "n00", "n01"


def metrics_digest(m) -> str:
    """sha256 of a RunMetrics, every SegmentOutcome included."""
    lines = [f"{m.delivered_base} {m.delivered_full} {m.mean_quality!r} "
             f"{m.relay_transmissions} {m.bytes_relayed} {m.contacts_used}"]
    lines += [f"{s.segment_index} {s.layers_sent} {s.quality_delivered} {s.delivery_delay_seconds!r}"
              for s in m.segments]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def files_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in a directory, by name."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


@dataclass
class ScenarioResult:
    """One simulated scenario: CPU time, output digest, and the simulated result."""

    ms: float
    digest: str | None  # None when the scenario raised
    mean_quality: float = 0.0
    delivered_base: int = 0
    segments: int = 0


@dataclass
class Pass:
    """One pass of a workload: CPU seconds of the program's work, and its outputs."""

    seconds: float
    results: list[ScenarioResult]
    files: str | None = None  # digest of the files the pass wrote, if any


def _scenario_result(seconds: float, metrics) -> ScenarioResult:
    if metrics is None:
        return ScenarioResult(seconds * 1e3, None)
    return ScenarioResult(seconds * 1e3, metrics_digest(metrics), metrics.mean_quality,
                          metrics.delivered_base, len(metrics.segments))


def _run_scenarios(ov: SimpleNamespace, scenarios: list, check: bool) -> Pass:
    timed = []
    started = cpu_clock()
    for scenario in scenarios:
        t0 = cpu_clock()
        try:
            metrics = ov.sim.run(scenario, check_invariants=check)
        except Exception:  # a raising scenario is a counted failure, not a crash
            traceback.print_exc()
            metrics = None
        timed.append((cpu_clock() - t0, metrics))
    seconds = cpu_clock() - started
    return Pass(seconds, [_scenario_result(t, m) for t, m in timed])


class Campus60:
    """One adaptive two-week run on a 60-node campus trace, parsed from text."""

    name = "campus-60"
    reference_setup_s = 0.28
    input_sets = 32

    def __init__(self, nodes: int = 60, duration: int = TWO_WEEKS):
        self.nodes = nodes
        self.duration = duration

    def make_input(self, ov: SimpleNamespace, seed: int) -> str:
        events = ov.trace.generate_synthetic_trace(
            nodes=self.nodes, duration=self.duration, mean_intercontact=172_800,
            mean_contact_duration=120, seed=seed, excluded_pairs=[(SOURCE, DESTINATION)],
        )
        return ov.trace.format_trace(events)

    def setup(self, ov: SimpleNamespace, text: str) -> list:
        return [ov.sim.Scenario(
            trace=tuple(ov.trace.parse_trace(text)), source=SOURCE, destination=DESTINATION,
            ttl=172_800, bandwidth_bytes_per_sec=3_000_000, duration=self.duration,
            adaptation=ov.adaptation.AdaptationConfig(segment_period=7200),
        )]

    def run_pass(self, ov: SimpleNamespace, scenarios: list, out_root: Path) -> Pass:
        return _run_scenarios(ov, scenarios, check=False)


# Criterion-1 parameter ranges. Every pass uses the same 72 parameter sets:
# each (nodes, mean_intercontact) pair once, duration and contact length
# balanced across them, and the other five parameters in balanced columns
# shuffled once, with a fixed seed. The benchmark seed draws the traces.
# Drawn independently per seed, as criterion 1 does, the pass time and its
# slowest tenth changed between seeds by more than the benchmark's bounds.
_NODES = tuple(range(3, 21))
_INTERCONTACT = (300, 700, 1500, 3000)
_DURATION = (2000, 4000, 6000)
_CONTACT = (10, 40, 120, 400)
_COLUMNS = {
    "ttl": (400, 1200, 3000),
    "bandwidth": (15_000, 60_000, 250_000),
    "segment_period": (300, 600),
    "initial_copy_count": (2, 8, 16),
    "mode": ("adaptive", "fixed:low"),
}


def checked_random_design(count: int) -> list[dict]:
    rng = random.Random("checked-random design")
    columns = {}
    for key, values in _COLUMNS.items():
        column = [values[i % len(values)] for i in range(count)]
        rng.shuffle(column)
        columns[key] = column
    design = []
    for i in range(count):
        n, c = i % len(_NODES), i // len(_NODES) % len(_INTERCONTACT)
        design.append({
            "nodes": _NODES[n],
            "mean_intercontact": _INTERCONTACT[c],
            "duration": _DURATION[(n + c) % len(_DURATION)],
            "mean_contact_duration": _CONTACT[(n + c) % len(_CONTACT)],
            **{key: column[i] for key, column in columns.items()},
        })
    return design


class CheckedRandom:
    """Many small criterion-1-shaped scenarios, run with the invariant checker on."""

    name = "checked-random"
    reference_setup_s = 0.42
    input_sets = 32

    def __init__(self, count: int = 72):
        self.count = count

    def make_input(self, ov: SimpleNamespace, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [dict(p, trace_seed=rng.getrandbits(32)) for p in checked_random_design(self.count)]

    def setup(self, ov: SimpleNamespace, params: list[dict]) -> list:
        return [self._scenario(ov, p) for p in params]

    @staticmethod
    def _scenario(ov: SimpleNamespace, p: dict):
        # Small worlds can miss an endpoint, which the program rightly rejects;
        # redraw the trace until both endpoints meet someone.
        trace_seed = p["trace_seed"]
        for _ in range(1000):
            trace = ov.trace.generate_synthetic_trace(
                nodes=p["nodes"], duration=p["duration"], mean_intercontact=p["mean_intercontact"],
                mean_contact_duration=p["mean_contact_duration"], seed=trace_seed,
            )
            met = {node for e in trace for node in (e.node_a, e.node_b)}
            if SOURCE in met and DESTINATION in met:
                break
            trace_seed += 1
        else:
            raise RuntimeError(f"no trace with both endpoints for {p}")
        return ov.sim.Scenario(
            trace=tuple(trace), source=SOURCE, destination=DESTINATION, ttl=p["ttl"],
            bandwidth_bytes_per_sec=p["bandwidth"], duration=p["duration"],
            adaptation=ov.adaptation.AdaptationConfig(
                segment_period=p["segment_period"], initial_copy_count=p["initial_copy_count"]),
            mode=ov.sim.parse_mode(p["mode"]), seed=trace_seed,
            sizes=ov.adaptation.LayerSizeModel(base_bytes_low=30_000, extraction_info_bytes=400),
        )

    def run_pass(self, ov: SimpleNamespace, scenarios: list, out_root: Path) -> Pass:
        return _run_scenarios(ov, scenarios, check=True)


class DefaultSweep:
    """The shipped defaults through the CLI layer: validate, then a 2x2 sweep with CSV output.

    Every benchmark seed runs the same input, the shipped defaults with their
    own ``seed = 0``: the sweep's cost follows its trace, and from one trace
    seed to the next it changed by half the benchmark's bound (README.md).
    """

    name = "default-sweep"
    reference_setup_s = 0.087
    input_sets = 1

    def __init__(self, extra_config: str = ""):
        self.extra_config = extra_config

    def make_input(self, ov: SimpleNamespace, seed: int) -> str:
        return f"sweep.modes = adaptive,fixed:high\nsweep.removal_counts = 0,2\n{self.extra_config}"

    def setup(self, ov: SimpleNamespace, text: str):
        config, issues = ov.cli.validate_config(text)
        if config is None:
            raise RuntimeError("benchmark config rejected: " + "; ".join(map(str, issues)))
        return config

    def run_pass(self, ov: SimpleNamespace, config, out_root: Path) -> Pass:
        """Runs the sweep; per-run times and metrics come from a timer around ``cli.run``."""
        out_root.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=out_root))
        inner = ov.cli.run
        runs: list[tuple[float, object]] = []

        def timed_run(*args, **kwargs):
            t0 = cpu_clock()
            metrics = inner(*args, **kwargs)
            runs.append((cpu_clock() - t0, metrics))
            return metrics

        ov.cli.run = timed_run
        try:
            started = cpu_clock()
            ov.cli.run_experiment(config, out_dir)
            seconds = cpu_clock() - started
            return Pass(seconds, [_scenario_result(t, m) for t, m in runs], files_digest(out_dir))
        except Exception:  # the whole sweep failed: every run counts as failed
            traceback.print_exc()
            runs = len(config.ttl_values) * len(config.removal_counts) * len(config.modes) * len(config.seeds)
            return Pass(0.0, [ScenarioResult(0.0, None) for _ in range(runs)])
        finally:
            ov.cli.run = inner
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Campus60(), CheckedRandom(), DefaultSweep())}
