"""Traced run of one workload: spans and tracemalloc peaks per layer.

The workload's commands run in this process through gapstego.cli.main.
The public functions of each layer module are wrapped under the names
their callers bind (gapstego.cli.build_gap_index,
gapstego.keygen.build_table, gapstego.semigroup.build_table, ...), so a
call is seen whichever layer makes it.  A span records its name, its
parent span, the command it ran in, start, end and the size of what it
returned; a layer's self time is its span time minus its children's.

tracemalloc peaks come from a first pass of their own, so that
tracemalloc's cost per allocation stays out of the span times.  Then each
cycle runs twice, with and without spans, in alternating order, and the
difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict

from workloads import SRC, Recorder, Result, Workload, run_cycles

LAYERS = ("cli", "keygen", "semigroup", "codec", "formats", "analysis")
# Called once per stream value: a span each would cost more than the work.
PER_VALUE = {"encode_nibble", "decode_byte"}
# Peak traced memory is taken around these, in the tracemalloc pass.
PEAKS = {"codec.build_gap_index", "codec.encode_message", "formats.parse_stream"}
# Metric name and size of what a span's function returned.
SIZES = {
    "semigroup.build_table": ("semigroup.table_bytes", lambda table: table.min_rep.nbytes),
    "codec.build_gap_index": (
        "codec.gap_index_bytes", lambda index: sum(c.nbytes for c in index.classes)),
    "codec.encode_message": ("codec.stream_values", len),
    "formats.serialize_stream": ("formats.stream_bytes", len),
}
IMPORT_RUNS = 5
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import gapstego.cli;"
    " print(time.perf_counter() - t)"
)

NAME, PARENT, COMMAND, START, END, SIZE = range(6)


class Tracer:
    """Wraps the layers' functions; records spans, or tracemalloc peaks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = ""
        self.busy = 0.0  # wall time inside cli.main, traced or not
        self.peaks: dict[str, list[float]] = defaultdict(list)
        self.patched: list[tuple] = []

    def install(self, memory: bool = False) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"gapstego.{layer}")
            for attr, fn in list(vars(module).items()):
                owner = getattr(fn, "__module__", "").removeprefix("gapstego.")
                if (
                    not inspect.isfunction(fn)
                    or attr.startswith("_")
                    or attr in PER_VALUE
                    or owner not in LAYERS  # formulas and selftest stay unmeasured
                    # main stands for the cli layer: argparse, file I/O, printing
                    or (owner == "cli" and attr != "main")
                ):
                    continue
                name = f"{owner}.{fn.__name__}"
                if memory and name not in PEAKS:
                    continue
                self.patched.append((module, attr, fn))
                setattr(module, attr, self._peak(name, fn) if memory else self._span(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in self.patched:
            setattr(module, attr, fn)
        self.patched.clear()

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        size = SIZES[name][1] if name in SIZES else None

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.command, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(out)
            return out

        return traced

    def _peak(self, name, fn):
        peaks = self.peaks[name]

        # tracemalloc runs only inside the call, so the peak is what the
        # call allocated and the cost per allocation stays inside it
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return traced

    def run(self, metric: str, args: list) -> Result:
        """Recorder runner: one command through gapstego.cli.main."""
        from gapstego import cli

        out, err = io.StringIO(), io.StringIO()
        self.command = metric
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - the Recorder counts the traceback
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
        self.busy += wall
        return Result(code, out.getvalue(), err.getvalue(), wall, None)


def import_seconds() -> list[float]:
    """`import gapstego.cli` in fresh interpreters, as each CLI command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]


def traced_run(workload: type[Workload], seed: int, seconds: float):
    """Run `workload` traced; return (recorder, metrics, sample counts, record)."""
    imports = import_seconds()
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    s = Recorder(tracer.run)
    w = workload(s, seed)
    w.setup()
    ranges: list[tuple[int, int]] = []
    overhead: list[float] = []

    def pair(i: int) -> None:
        busy = {}
        for traced in (False, True) if i % 2 else (True, False):
            if traced:
                tracer.install()
            lo, before = len(tracer.spans), tracer.busy
            try:
                w.cycle(i)
            finally:
                tracer.uninstall()
            busy[traced] = tracer.busy - before
            if traced:
                ranges.append((lo, len(tracer.spans)))
        overhead.append(busy[True] - busy[False])

    # the tracemalloc pass goes first, so it also warms the pairs' code paths
    tracer.install(memory=True)
    try:
        w.cycle(0)
    finally:
        tracer.uninstall()
    run_cycles(seconds, pair)

    metrics, counts = layer_metrics(tracer.spans, ranges)
    for name, values in [
        ("cli.import_s", imports),
        ("trace.overhead_s", overhead),
        *((f"{name}_peak_mb", tracer.peaks[name]) for name in sorted(PEAKS)),
    ]:
        if values:
            metrics[name], counts[name] = statistics.median(values), len(values)
    breakdown = command_breakdown(tracer.spans, ranges)
    for command, parts in breakdown.items():
        print(f"{command:16} " + "  ".join(f"{k} {v:.4g}" for k, v in parts.items()))
    return s, metrics, counts, {"cycles": len(ranges), "breakdown": breakdown,
                                "spans": tracer.spans}


def layer_metrics(spans: list[list], ranges: list[tuple[int, int]]):
    """Per-layer metrics and their sample counts.

    `<span>_s` and `semigroup.build_table_calls` are totals per cycle;
    `cli.self_s` is the time in main that no child span covers.  Sizes,
    `codec.encode_ns_per_value` and `cli.encode_key_setup_frac` are per
    unsalted encode command.  Each is the median over its samples.
    """
    per_cycle: dict[str, list[float]] = defaultdict(list)
    per_call: dict[str, list[float]] = defaultdict(list)
    for lo, hi in ranges:
        total: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        key_setup: dict[int, float] = defaultdict(float)
        calls = 0
        for k in range(lo, hi):
            span = spans[k]
            took = span[END] - span[START]
            total[f"{span[NAME]}_s"] += took
            calls += span[NAME] == "semigroup.build_table"
            parent = span[PARENT]
            if parent < 0:
                continue
            covered[parent] += took
            if span[COMMAND] == "encode" and spans[parent][NAME] == "cli.main":
                if span[NAME] in ("semigroup.build_table", "codec.build_gap_index"):
                    key_setup[parent] += took
                if span[SIZE] is not None:
                    per_call[SIZES[span[NAME]][0]].append(span[SIZE])
                if span[NAME] == "codec.encode_message" and span[SIZE]:
                    per_call["codec.encode_ns_per_value"].append(took / span[SIZE] * 1e9)
        mains = [k for k in range(lo, hi) if spans[k][NAME] == "cli.main"]
        total["cli.self_s"] = sum(spans[k][END] - spans[k][START] - covered[k] for k in mains)
        total["semigroup.build_table_calls"] = calls
        for k in mains:
            if spans[k][COMMAND] == "encode":
                per_call["cli.encode_key_setup_frac"].append(
                    key_setup[k] / (spans[k][END] - spans[k][START]))
        for name, value in total.items():
            per_cycle[name].append(value)
    # a function not called in some cycle took no time there
    for values in per_cycle.values():
        values.extend([0.0] * (len(ranges) - len(values)))
    samples = {**per_cycle, **per_call}
    return ({k: statistics.median(v) for k, v in samples.items()},
            {k: len(v) for k, v in samples.items()})


def command_breakdown(spans: list[list], ranges: list[tuple[int, int]]) -> dict:
    """Median seconds per command: main, its self time and each child."""
    parts: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for lo, hi in ranges:
        per_main: dict[int, dict[str, float]] = {}
        for k in range(lo, hi):
            span = spans[k]
            took = span[END] - span[START]
            if span[NAME] == "cli.main":
                per_main.setdefault(k, defaultdict(float))["main"] = took
                per_main[k]["self"] += took
            elif span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "cli.main":
                row = per_main.setdefault(span[PARENT], defaultdict(float))
                row[span[NAME]] += took
                row["self"] -= took
        for k, row in per_main.items():
            for name, took in row.items():
                parts[spans[k][COMMAND]][name].append(took)
    return {c: {n: statistics.median(v) for n, v in p.items()} for c, p in parts.items()}
