"""The frozen reference copy of oppvid, run beside the program under test.

The host this benchmark runs on changes speed by up to a factor of 2, in
bursts of a fraction of a second and in stretches of minutes, which no
statistic over one run of the program alone can remove. So every untraced
run also starts this file as a worker process that imports
``reference/oppvid`` (the program as it was when the benchmark was defined,
never edited since) and gets the same inputs. In each round both processes
do the same task at once, a fresh set-up or one pass, pinned to the same
CPU: the kernel switches between them every few milliseconds, so a slow
moment of the machine slows both alike. Each side counts its own CPU
seconds, and the ratio of the two keeps only the difference between the
programs. The side that finishes first says so with SIGUSR1 and repeats its
task, uncounted, until the other side's signal stops it, so neither side
ever runs alone, with the whole core and its caches to itself.

Messages are JSON lines: the parent writes to the worker's standard input
and reads its standard output; the worker's own prints go to standard error.
"""
from __future__ import annotations

import base64
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_SRC = BENCH_DIR / "reference"


class Stop(BaseException):
    """The other side finished its counted task."""


class Turns:
    """This side's end of a round: after the counted task, repeat it until the other side is done."""

    def __init__(self, peer_pid: int, peer_alive):
        self.peer_pid = peer_pid
        self.peer_alive = peer_alive
        self.peer_done = self.filling = False
        signal.signal(signal.SIGUSR1, self._on_signal)

    def _on_signal(self, *_) -> None:
        self.peer_done = True
        if self.filling:
            self.filling = False
            raise Stop

    def finish(self, filler) -> None:
        os.kill(self.peer_pid, signal.SIGUSR1)
        try:
            self.filling = True
            while not self.peer_done and self.peer_alive():
                filler()
        except BaseException:
            # Stop can surface wrapped, e.g. as the RuntimeError that class
            # creation raises around an error in __set_name__ during an import.
            if not self.peer_done:
                raise
        finally:
            self.filling = False
        self.peer_done = False


class Reference:
    """Parent side: starts the worker, pinned to ``cpu``, and runs rounds with it."""

    def __init__(self, workload, inp, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=BENCH_DIR.parent,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.turns = Turns(self.proc.pid, lambda: self.proc.poll() is None)
        self._send({"op": "load", "workload": base64.b64encode(pickle.dumps(workload)).decode(), "input": inp})
        self._recv()

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, exc_type, *_) -> None:
        # After an error the worker may be mid-round, waiting for a signal
        # that will not come: stop it at once.
        if exc_type is not None:
            self.proc.kill()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference worker exited")
        msg = json.loads(line)
        if "error" in msg:
            raise RuntimeError(f"reference worker: {msg['error']}")
        return msg

    def round(self, op: str, task):
        """Run ``task()`` here while the worker does ``op`` ("setup" or "pass").

        Returns what ``task`` returned and the worker's CPU seconds.
        """
        self._send({"op": op})
        mine = task()
        self.turns.finish(task)
        return mine, self._recv()["seconds"]


def _worker() -> int:
    """Worker side: serve requests until standard input closes."""
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    sys.path.insert(0, str(REFERENCE_SRC))

    import run
    from workloads import cpu_clock

    def send(msg: dict) -> None:
        out.write(json.dumps(msg) + "\n")
        out.flush()

    parent = os.getppid()
    turns = Turns(parent, lambda: os.getppid() == parent)
    workload = inp = ov = prepared = None

    def setup():
        t0 = cpu_clock()
        ov = run.load_program(fresh=True, src=REFERENCE_SRC)
        return ov, workload.setup(ov, inp), cpu_clock() - t0

    def run_pass():
        return workload.run_pass(ov, prepared, run.OUT)

    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "load":
            workload, inp = pickle.loads(base64.b64decode(request["workload"])), request["input"]
            send({"ok": True})
        elif op == "setup":
            ov, prepared, seconds = setup()
            send({"seconds": seconds})
            turns.finish(setup)
        elif op == "pass":
            p = run_pass()
            if any(r.digest is None for r in p.results):
                send({"error": "a scenario of the reference copy raised"})
            else:
                send({"seconds": p.seconds})
            turns.finish(run_pass)
            # Collected before the next round, as the parent does before asking for it.
            gc.collect()
        else:
            send({"error": f"unexpected request {op!r}"})
    return 0


if __name__ == "__main__":
    sys.exit(_worker())
