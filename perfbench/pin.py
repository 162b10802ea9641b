"""Pin the output digests that the benchmark checks every run against.

    python3 perfbench/pin.py

Runs one pass of each input set (``input_sets`` per workload) and writes
the sha256 of every scenario's outputs into ``pinned.json``. Run it only on a
commit whose outputs are known to be right: a change that claims to keep
outputs byte-identical must pass against the digests as they are.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run
from workloads import WORKLOADS


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(run.SRC))
    ov = run.load_program(fresh=False)
    pinned = {}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        pinned[name] = {}
        for seed in range(workload.input_sets):
            t0 = time.perf_counter()
            prepared = workload.setup(ov, workload.make_input(ov, seed))
            p = workload.run_pass(ov, prepared, run.OUT)
            results = p.results
            if any(r.digest is None for r in results):
                raise SystemExit(f"{name} input set {seed}: a scenario raised; nothing pinned")
            pinned[name][str(seed)] = {"scenarios": [r.digest for r in results], "files": p.files}
            ms = [r.ms for r in results]
            print(f"{name} {seed}: {len(results)} scenarios in {time.perf_counter() - t0:.2f} s, "
                  f"p50 {run.percentile(ms, 50):.0f} ms, p90 {run.percentile(ms, 90):.0f} ms, "
                  f"{run.simulated(results)}", flush=True)
    run.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
