"""Smoke check of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json names exactly the metrics the benchmark gates,
with the same units; that every workload emits all of them, and every
printed-only metric, each with a unit, untraced and traced; that the digest
check counts a doctored output as failed; that the pinned digests cover
every input set; and that the benchmark refuses to run in a directory
without the program's sources.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
from workloads import WORKLOADS, Campus60, CheckedRandom, DefaultSweep

TINY = (
    Campus60(nodes=6, duration=2 * 86_400),
    CheckedRandom(count=4),
    DefaultSweep(extra_config="duration = 172800\ntrace.synthetic.nodes = 5\n"
                              "trace.synthetic.mean_intercontact = 20000\n"),
)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_METRICS
    pinned = json.loads(run.PINNED.read_text())
    assert pinned.keys() == WORKLOADS.keys(), pinned.keys()
    for name, workload in WORKLOADS.items():
        assert sorted(pinned[name], key=int) == [str(s) for s in range(workload.input_sets)], name


def doctored(ov, workload):
    """Patch every entry point the workload simulates through to alter one output field."""
    originals = {mod: mod.run for mod in (ov.sim, ov.cli)}

    def wrong(inner):
        def run_(*args, **kwargs):
            metrics = inner(*args, **kwargs)
            return dataclasses.replace(metrics, bytes_relayed=metrics.bytes_relayed + 1)
        return run_

    for mod, inner in originals.items():
        mod.run = wrong(inner)
    return originals


def check_workload(workload) -> None:
    ov = run.load_program(fresh=False)
    inp = workload.make_input(ov, 0)
    first = workload.run_pass(ov, workload.setup(ov, inp), run.OUT)
    results = first.results
    pin = {"scenarios": [r.digest for r in results], "files": first.files}
    assert None not in pin["scenarios"], f"{workload.name}: a tiny scenario raised"

    metrics, extra = run.measure_plain(workload, inp, pin, seconds=0)
    assert metrics.keys() == run.END_TO_END_METRICS.keys(), metrics.keys()
    assert extra["reported"].keys() == run.REPORTED_METRICS.keys(), extra["reported"].keys()
    assert all(run.END_TO_END_METRICS.values()) and all(run.REPORTED_METRICS.values())
    assert extra["failed"] == 0 and extra["attempted"] == len(results), extra
    assert all(v > 0 for v in metrics.values()), metrics
    assert len(extra["setup_rounds_cpu_s"]) == run.SETUP_REPS, extra["setup_rounds_cpu_s"]
    assert 0.5 < metrics["time_rel"] < 2, metrics

    spans = run.OUT / f"spans-smoke-{workload.name}.tsv"
    metrics, extra = run.measure_traced(workload, inp, pin, 0, spans)
    assert metrics.keys() == tracer.PER_LAYER_METRICS.keys(), metrics.keys() ^ tracer.PER_LAYER_METRICS.keys()
    assert extra["failed"] == 0 and not extra["missing_targets"], extra
    assert metrics["sim.run.calls"] == len(results) and metrics["sim.events"] > 0, metrics
    spans.unlink()

    ov = run.load_program(fresh=False)
    originals = doctored(ov, workload)
    try:
        wrong = workload.run_pass(ov, workload.setup(ov, inp), run.OUT)
    finally:
        for mod, inner in originals.items():
            mod.run = inner
    assert run.count_failures(wrong, pin) == len(results) > 0, "doctored output passed the check"
    print(f"ok {workload.name}: {len(results)} scenarios, all metrics emitted, doctored output caught")


def check_refuses_bare_directory() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "campus-60",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory: refused with exit code", proc.returncode)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    print("ok BENCHMARK.json and pinned digests match the benchmark")
    for workload in TINY:
        check_workload(workload)
    check_refuses_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
