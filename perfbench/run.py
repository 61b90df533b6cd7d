#!/usr/bin/env python3
"""Benchmark for gapstego: the real CLI, command by command.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 40 --trace 0

With --trace 0 every command runs as a child process (`python -m
gapstego.cli` with PYTHONPATH=src), one at a time in a closed loop, and
the end-to-end metrics are reported: median wall time per command,
each sample scaled to the references taken beside it (see REF_S), peak
RSS per child, stream bytes per payload byte and the set-up time.  With
--trace 1 the same commands run in this process through
gapstego.cli.main, with spans around each layer's functions, and the
per-layer metrics are reported (see spans.py).

Every output is checked.  The metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object; the lines
before it print each metric with its sample count, the failure fraction
and the machine.  perfbench/README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import OUT, ROOT, SRC, WORK, WORKLOADS, Recorder, Result, run_balanced

# A hung child is killed and counted as a failure.
COMMAND_TIMEOUT_S = 60.0
# On a shared VM the speed of a process drifts by up to 1.8x over
# minutes, and start-up does not always drift with computation.  So
# before a command, whenever REF_EVERY_S has passed since the last time,
# two references run: a child `python -c "import numpy"` (start-up, Rs)
# and, in this process, a fixed loop of Python arithmetic (computation,
# Rc, the faster of two runs).  With Rs and Rc the medians of the
# REF_NEAR references before and REF_NEAR after a sample of `wall`
# seconds, the sample counts as REF_S + (wall - Rs) * REF_C / Rc: the
# seconds the command would take where starting Python and importing
# numpy takes REF_S and the loop takes REF_C.  A timing is the median of
# these over the run.  One reference varies by about 10% from the next,
# as much as a command does, so the medians over several follow the
# drift without adding that noise.
REF_ARGV = ["-c", "import numpy"]
REF_S = 0.15
REF_LOOP = 300_000
REF_C = 0.025
REF_EVERY_S = 1.0
REF_NEAR = 3
# Children get one hash seed, so that str hashing does not change the
# work of a command from one process to the next.
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def spawn(argv: list, out, err) -> tuple[int, float, float]:
    """Run argv to its end; return exit code, wall seconds, peak RSS in MB."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                            cwd=WORK, env=env)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # wait4 gives this child's own peak RSS, which Popen.wait does not
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class ChildRunner:
    """Recorder runner: each command in a fresh interpreter, timed from
    process start, with the reference runs in between."""

    def __init__(self) -> None:
        # (start, end, Rs, Rc) of each reference, on this process's clock
        self.ref: list[tuple[float, float, float, float]] = []

    def reference(self) -> None:
        t0 = time.perf_counter()
        wall = spawn([sys.executable, *REF_ARGV], subprocess.DEVNULL, subprocess.DEVNULL)[1]
        loops = []
        for _ in range(2):
            c0 = time.perf_counter()
            x = 0
            for i in range(REF_LOOP):
                x += i * i % 7
            loops.append(time.perf_counter() - c0)
        self.ref.append((t0, time.perf_counter(), wall, min(loops)))

    def __call__(self, metric: str, args: list) -> Result:
        if not self.ref or time.perf_counter() - self.ref[-1][1] >= REF_EVERY_S:
            self.reference()
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, wall, rss = spawn([sys.executable, "-m", "gapstego.cli", *args], out, err)
        return Result(code, out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"), wall, rss)

    def scaled(self, wall: float, end: float) -> float:
        """A sample of `wall` seconds that ended at `end`, in reference
        units (see REF_S)."""
        k = bisect.bisect_right([r[1] for r in self.ref], end)
        near = self.ref[max(k - REF_NEAR, 0):k + REF_NEAR]
        rs = statistics.median(r[2] for r in near)
        rc = statistics.median(r[3] for r in near)
        return REF_S + (wall - rs) * REF_C / rc


def machine() -> dict:
    cpu = platform.processor()
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, wanted: list) -> dict:
    """Run one workload; print its metrics, write its record, return the result."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if trace:
            import spans  # imports gapstego

            s, metrics, counts, record = spans.traced_run(WORKLOADS[workload], seed, seconds)
        else:
            runner = ChildRunner()
            runner.reference()  # warm-up: interpreter and numpy into the page cache
            runner.ref.clear()
            s = Recorder(runner)
            w = WORKLOADS[workload](s, seed)
            w.setup()
            runs = run_balanced(seconds, w)
            runner.reference()  # the last samples' reference after them
            scaled = {k: [runner.scaled(v, t) for v, t in zip(s.samples[k], s.when[k])]
                      for k in s.when}
            metrics = {k: statistics.median(scaled.get(k, v)) for k, v in s.samples.items()}
            counts = {k: len(v) for k, v in s.samples.items()}
            record = {"runs": runs, "ref": runner.ref, "samples": s.samples,
                      "when": s.when, "scaled": scaled}
            print(f"references (n={len(runner.ref)}): start-up median"
                  f" {statistics.median(r[2] for r in runner.ref):.4f} s, loop median"
                  f" {statistics.median(r[3] for r in runner.ref):.4f} s; task runs {runs}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env = machine()
    print(f"workload {workload} seed {seed} machine {json.dumps(env)}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']:32} {metrics[m['name']]:14.6g} {m['unit']:6} n={counts[m['name']]}")
    print(f"{'fail_frac':32} {s.failed / max(s.attempted, 1):14.6g} {'frac':6} n={s.attempted}")
    for name in missing:
        print(f"{workload}: no sample of {name}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record.update(machine=env, attempted=s.attempted, failed=s.failed, metrics=metrics)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    return {
        "correct": s.failed == 0 and not missing,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                   help="'all' runs each workload in turn and prints each result")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "gapstego" / "cli.py").is_file():
        print(f"no gapstego sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # the build: bytecode for every module, so no timed command compiles
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        print(json.dumps(run_one(name, args.seed, args.seconds, args.trace, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
