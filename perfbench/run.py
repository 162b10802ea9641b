"""oppvid benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload campus-60 --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else. With ``--trace 0`` it reports the
end-to-end metrics (tracing off, each time taken against the frozen
reference copy in ``reference/`` run beside the program, see paired.py);
with ``--trace 1`` it reports per-layer metrics from spans around the calls
into each module. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. README.md explains the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import tracer
from paired import Reference
from workloads import WORKLOADS, Pass, cpu_clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned.json"
SETUP_REPS = 11  # rounds of fresh set-ups per run, before the passes
UNTRACED_PASSES = 2  # before a traced run, for the tracing overhead
SLOW_RUN = 1.2  # a run whose slowest reference pass took this much more than its fastest is flagged
PROGRAM_MODULES = ("adaptation", "cli", "destination", "protocol", "sim", "store", "trace", "wire")

# Gated metrics: each has a bound in BENCHMARK.json.
END_TO_END_METRICS = {"setup_s": "s", "time_rel": "ratio", "peak_rss_mb": "MB"}
# Printed and recorded with every untraced run, but not gated (README.md says
# why): plain CPU times follow the machine's speed, the percentiles rest on
# one or four scenarios a pass on two of the workloads, and the rest are 0 or
# change with the seed by more than any bound.
REPORTED_METRICS = {
    "pass_cpu_s": "s",
    "setup_cpu_s": "s",
    "scenario_ms.p50": "ms",
    "scenario_ms.p90": "ms",
    "failed_frac": "ratio",
    "mean_quality": "layers",
    "delivered_base_frac": "ratio",
}


def load_program(fresh: bool, src: Path = SRC) -> SimpleNamespace:
    """Import oppvid from ``src`` (the checkout's ``src/``); ``fresh`` re-executes every module."""
    if fresh:
        for name in [m for m in sys.modules if m == "oppvid" or m.startswith("oppvid.")]:
            del sys.modules[name]
    ov = SimpleNamespace(**{name: importlib.import_module(f"oppvid.{name}") for name in PROGRAM_MODULES})
    if not Path(ov.sim.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"oppvid was imported from {ov.sim.__file__}, not from {src}")
    return ov


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu}


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def count_failures(p: Pass, pin: dict) -> int:
    """Scenarios that raised or whose outputs differ from the pinned digests."""
    if pin["files"] is not None and p.files != pin["files"]:
        return max(len(p.results), len(pin["scenarios"]))
    return sum(1 for got, want in zip_longest(p.results, pin["scenarios"])
               if got is None or want is None or got.digest != want)


def run_passes(seconds: float, prepare, run_pass, on_pass=None, min_passes: int = 1) -> list[Pass]:
    """Repeat ``run_pass(ov, prepared)`` for about ``seconds``: at least
    ``min_passes``, and none that would likely end more than half a pass late."""
    passes = []
    started = time.perf_counter()
    while True:
        ov, prepared = prepare()
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(ov, prepared))
        if on_pass is not None:
            on_pass()
        now = time.perf_counter()
        if len(passes) >= min_passes and now - started + (now - t0) / 2 >= seconds:
            return passes


def typical_pass(passes) -> float:
    """Each scenario's median time over the passes, summed, plus the median time outside them."""
    per_scenario = zip(*(p.results for p in passes))
    scenarios = sum(statistics.median([r.ms for r in samples]) for samples in per_scenario) / 1e3
    return scenarios + statistics.median([p.seconds - sum(r.ms for r in p.results) / 1e3 for p in passes])


def check_passes(passes, pin) -> tuple[int, int]:
    attempted = sum(max(len(p.results), len(pin["scenarios"])) for p in passes)
    failed = sum(count_failures(p, pin) for p in passes)
    return attempted, failed


def simulated(results) -> dict[str, float]:
    """The simulated result users read, over the scenarios of one pass."""
    ok = [r for r in results if r.digest is not None]
    segments = sum(r.segments for r in ok)
    return {
        "mean_quality": statistics.fmean(r.mean_quality for r in ok) if ok else 0.0,
        "delivered_base_frac": sum(r.delivered_base for r in ok) / segments if segments else 0.0,
    }


def measure_plain(workload, inp, pin, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_rounds, pass_rounds = [], []

    def fresh_setup():
        t0 = cpu_clock()
        ov = load_program(fresh=True)
        prepared = workload.setup(ov, inp)
        return ov, prepared, cpu_clock() - t0

    with Reference(workload, inp, cpu) as ref:
        for _ in range(SETUP_REPS):
            (ov, prepared, t), ref_t = ref.round("setup", fresh_setup)
            setup_rounds.append((t, ref_t))

        def paired_pass(ov, prepared):
            p, ref_t = ref.round("pass", lambda: workload.run_pass(ov, prepared, OUT))
            pass_rounds.append((p.seconds, ref_t))
            return p

        passes = run_passes(seconds - (time.perf_counter() - started), lambda: (ov, prepared), paired_pass)
    attempted, failed = check_passes(passes, pin)
    scenario_ms = [r.ms for p in passes for r in p.results]
    ref_passes = [r for _, r in pass_rounds]
    metrics = {
        "setup_s": statistics.median(t / r for t, r in setup_rounds) * workload.reference_setup_s,
        "time_rel": sum(t for t, _ in pass_rounds) / sum(ref_passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "reported": {
            "pass_cpu_s": typical_pass(passes),
            "setup_cpu_s": statistics.median(t for t, _ in setup_rounds),
            "scenario_ms.p50": percentile(scenario_ms, 50),
            "scenario_ms.p90": percentile(scenario_ms, 90),
            "failed_frac": failed / attempted,
            **simulated(passes[0].results),
        },
        "setup_rounds_cpu_s": setup_rounds,
        "pass_rounds_cpu_s": pass_rounds,
        "scenario_ms_by_pass": [[r.ms for r in p.results] for p in passes],
        "scenarios_per_pass": len(passes[0].results),
        "scenario_samples": len(scenario_ms),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, extra


def measure_traced(workload, inp, pin, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    ov = load_program(fresh=False)
    prepared = workload.setup(ov, inp)
    run_pass = lambda ov, prepared: workload.run_pass(ov, prepared, OUT)
    untraced = run_passes(0, lambda: (ov, prepared), run_pass, min_passes=UNTRACED_PASSES)
    t = tracer.Tracer(ov)
    t.install()
    try:
        prepared = workload.setup(ov, inp)
        setup = t.end_phase(keep_spans=True)
        phases = []
        traced = run_passes(seconds, lambda: (ov, prepared), run_pass,
                            on_pass=lambda: phases.append(t.end_phase(keep_spans=not phases)))
    finally:
        t.uninstall()
    attempted, failed = check_passes(untraced + traced, pin)
    repeatable = all(p.work() == phases[0].work() for p in phases)
    overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced)
    metrics = tracer.per_layer_metrics(setup, phases, overhead)
    tracer.write_spans(spans_path, [("setup", setup), ("pass", phases[0])])
    extra = {
        "counts_repeat": repeatable,
        "missing_targets": t.missing,
        "untraced_pass_times_s": [p.seconds for p in untraced],
        "traced_pass_times_s": [p.seconds for p in traced],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oppvid" / "__init__.py").is_file():
        print(f"error: no oppvid sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not PINNED.is_file():
        print(f"error: missing {PINNED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    env["loadavg_start"] = loadavg()
    workload = WORKLOADS[args.workload]
    seed = args.seed % workload.input_sets
    pin = json.loads(PINNED.read_text())[workload.name][str(seed)]
    inp = workload.make_input(load_program(fresh=False), seed)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = measure_traced(workload, inp, pin, args.seconds, OUT / f"spans-{workload.name}.tsv")
        units = tracer.PER_LAYER_METRICS
        correct = extra["failed"] == 0 and extra["counts_repeat"] and not extra["missing_targets"]
    else:
        metrics, extra = measure_plain(workload, inp, pin, args.seconds)
        units = END_TO_END_METRICS
        correct = extra["failed"] == 0

    env["loadavg_end"] = loadavg()
    env["load_exceeded_nproc"] = max(env["loadavg_start"] + env["loadavg_end"], default=0) > env["nproc"]
    if not args.trace:
        ref_passes = [r for _, r in extra["pass_rounds_cpu_s"]]
        env["slowdown"] = max(ref_passes) / min(ref_passes)
    record = {"workload": workload.name, "seed": args.seed, "input_set": seed, "pinned_sets": workload.input_sets,
              "trace": args.trace, "seconds": args.seconds, "environment": env, "correct": correct,
              "metrics": metrics, "details": extra}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload.name} seed={args.seed} (input set {seed}) trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"# loadavg start={env['loadavg_start']} end={env['loadavg_end']}")
    if env["load_exceeded_nproc"]:
        print("# warning: load average exceeded nproc during this run; timings are noisy")
    if env.get("slowdown", 1) > SLOW_RUN:
        print(f"# warning: the reference's passes varied by {env['slowdown']:.2f}x; the machine was busy")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in extra.get("reported", {}).items():
        print(f"{name} {value:.6g} {REPORTED_METRICS[name]} (not gated)")
    print(json.dumps({
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
