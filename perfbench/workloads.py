"""Workloads of the gapstego benchmark: keys, inputs, commands and checks.

Each workload makes its inputs from the seed it is given, runs a set-up
and then its tasks through a Recorder, which counts every command and
checks every output.  run_balanced gives each task about the same share
of a run; Workload.cycle runs each task once.  The Recorder's runner
decides how a command runs: as a child process (run.py) or in this
process under tracing (spans.py).  README.md beside this file says why
each workload exists and which layer it isolates.
"""

from __future__ import annotations

import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
OUT = ROOT / "perfbench" / "out"

# `keygen --seed 1`, the key of the README.
README_KEY = (568, 3692, 4084, 4314, 4483)
README_GENUS = 148_901
# generate_key(KeygenParams(seed=1, n_elements=12, base_min=100000,
# base_max=200000, spread_max=20000)); the CLI cannot make it, so the
# key file is written here.  (10, 11) is what choose_salt_pair picks.
BIGKEY = (
    160000, 400000, 920000, 1072000, 1140000, 1263000,
    1271200, 1271640, 1278984, 1279492, 1279746, 1279873,
)
BIGKEY_GENUS = 14_751_704
BIGKEY_SALT_PAIR = (10, 11)

MODES = ("telescopic", "appendix-c")


@dataclass
class Result:
    code: int
    out: str
    err: str
    wall: float
    rss_mb: float | None


Runner = Callable[[str, list], Result]


class Recorder:
    """Runs CLI commands through one runner, checks them, keeps the samples."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.samples: dict[str, list[float]] = defaultdict(list)
        # when each `_s` sample ended, on this process's perf_counter
        self.when: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def run(self, metric: str, args: list, expect: int = 0) -> Result | None:
        """Run one command; None when it exits wrongly or prints a traceback.

        A successful command adds its wall time to `<metric>_s` and its
        peak RSS to `<metric>_rss_mb`.
        """
        args = [str(a) for a in args]
        self.attempted += 1
        r = self.runner(metric, args)
        if r.code != expect or "Traceback" in r.err:
            self.miss(f"gapstego {' '.join(args)}: exit {r.code}, expected {expect}\n"
                      f"{r.err[-2000:]}")
            return None
        self.samples[f"{metric}_s"].append(r.wall)
        self.when[f"{metric}_s"].append(time.perf_counter())
        if r.rss_mb is not None:
            self.samples[f"{metric}_rss_mb"].append(r.rss_mb)
        return r

    def check(self, ok: bool, what: str) -> bool:
        """Count a wrong output of a command that exited as expected."""
        if not ok:
            self.miss(what)
        return ok

    def miss(self, why: str) -> None:
        self.failed += 1
        print(f"FAIL {why}", file=sys.stderr)


def key_generators(path: Path) -> tuple[int, ...]:
    lines = path.read_text().split("\n")
    return tuple(int(ln) for ln in lines if ln.isdigit())


def fields(text: str) -> dict[str, str]:
    """`name value` lines of inspect and analyze as a dict."""
    return dict(ln.split(" ", 1) for ln in text.splitlines() if " " in ln)


def keygen(s: Recorder, key: Path, seed: int, mode: str = "telescopic"):
    """Run keygen; return (generators, genus) as printed, or None."""
    r = s.run("keygen", ["keygen", "--seed", seed, "--mode", mode, "--out", key])
    if r is None:
        return None
    printed = dict(kv.split("=", 1) for kv in r.out.split())
    gens = tuple(int(g) for g in printed["generators"].split(","))
    if not s.check(key_generators(key) == gens, f"keygen --seed {seed}: key file"
                   " does not list the printed generators"):
        return None
    return gens, int(printed["genus"])


def encode(s: Recorder, metric: str, key: Path, data: Path, out: Path, seed: int,
           salt: bool = False) -> bool:
    args = ["encode", "--key", key, "--in", data, "--out", out, "--seed", seed]
    return s.run(metric, args + ["--salt"] * salt) is not None


def decode(s: Recorder, metric: str, key: Path, stream: Path, payload: bytes | None,
           verify: bool) -> None:
    out = WORK / "decoded.bin"
    args = ["decode", "--key", key, "--in", stream, "--out", out]
    if s.run(metric, args + ["--verify"] * verify) is not None:
        s.check(out.read_bytes() == payload, f"{metric}: decoded bytes differ from the payload")


class KeyCommands:
    """The commands on one key.  Each method runs one command, named as
    its metric, with inputs drawn from the rng it is given; the decodes
    and analyze read the stream of the last encode that succeeded."""

    # one round on a key, in an order where each command has its input
    ROUND = ("setup", "inspect", "encode", "decode_verify", "analyze",
             "encode_salt", "decode_salt")

    def __init__(self, s: Recorder, key: Path, gens: tuple, genus: int,
                 payload_bytes: int) -> None:
        self.s, self.key, self.gens, self.genus = s, key, gens, genus
        self.payload_bytes = payload_bytes
        self.stream, self.salted = WORK / "stream.txt", WORK / "salted.txt"
        self.payload: bytes | None = None  # what self.stream encodes
        self.salted_payload: bytes | None = None

    def setup(self, rng: random.Random) -> None:
        # encode of an empty payload: loading the key and building
        # everything the encoder needs before its first value
        empty = WORK / "empty.bin"
        empty.write_bytes(b"")
        encode(self.s, "setup", self.key, empty, WORK / "empty.txt", rng.randrange(2**32))

    def inspect(self, rng: random.Random) -> None:
        r = self.s.run("inspect", ["inspect", "--key", self.key])
        if r is not None:
            f = fields(r.out)
            self.s.check(f.get("viable") == "true"
                         and f.get("generators") == ",".join(map(str, self.gens))
                         and f.get("genus") == str(self.genus),
                         f"inspect {self.gens}: expected viable true and genus {self.genus},"
                         f" got {f}")

    def _encode(self, rng: random.Random, metric: str, out: Path, salt: bool):
        payload = rng.randbytes(self.payload_bytes)
        data = WORK / "payload.bin"
        data.write_bytes(payload)
        ok = encode(self.s, metric, self.key, data, out, rng.randrange(2**32), salt)
        return payload if ok else None

    def encode(self, rng: random.Random) -> None:
        self.payload = self._encode(rng, "encode", self.stream, salt=False)
        if self.payload is not None:
            self.s.samples["stream_bytes_per_byte"].append(
                self.stream.stat().st_size / self.payload_bytes)

    def decode_verify(self, rng: random.Random) -> None:
        decode(self.s, "decode_verify", self.key, self.stream, self.payload, verify=True)

    def analyze(self, rng: random.Random) -> None:
        r = self.s.run("analyze", ["analyze", "--key", self.key, "--in", self.stream])
        if r is not None:
            f = fields(r.out)
            hist = [int(c) for c in f.get("class_histogram", "").split(",") if c]
            n = 2 * self.payload_bytes
            self.s.check(f.get("n_values") == str(n) and sum(hist) == n,
                         f"analyze: expected {n} values in n_values and the histogram, got {f}")

    def encode_salt(self, rng: random.Random) -> None:
        self.salted_payload = self._encode(rng, "encode_salt", self.salted, salt=True)

    def decode_salt(self, rng: random.Random) -> None:
        decode(self.s, "decode_salt", self.key, self.salted, self.salted_payload, verify=False)

    def tampered(self, rng: random.Random) -> None:
        """decode --verify of the last stream with one value replaced by a
        semigroup member: exit 3, naming the position."""
        values = self.stream.read_text().split("\n")
        pos = rng.randrange(2 * self.payload_bytes)
        values[pos] = str(self.gens[-1])
        bad = WORK / "tampered.txt"
        bad.write_text("\n".join(values))
        r = self.s.run("decode_tampered", ["decode", "--verify", "--key", self.key, "--in", bad,
                                           "--out", WORK / "tampered.bin"], expect=3)
        if r is not None:
            self.s.check(f"(positions {pos})" in r.err,
                         f"tampered stream: position {pos} not named in {r.err!r}")


Task = Callable[[random.Random], None]


class Workload:
    """A key and the tasks run on it; inputs come from the seed."""

    payload_bytes = 0

    def __init__(self, s: Recorder, seed: int) -> None:
        self.s = s
        self.seed = seed
        self.key = WORK / "workload.key"

    def rng(self, task: str, k: int) -> random.Random:
        # a str seed is hashed with SHA-512, so run k of a task repeats exactly
        return random.Random(f"{type(self).__name__}:{self.seed}:{task}:{k}")

    def setup(self) -> None:
        pass

    def tasks(self) -> list[tuple[str, Task]]:
        raise NotImplementedError

    def cycle(self, i: int) -> None:
        """Run every task once, in order, as run i."""
        for name, task in self.tasks():
            task(self.rng(name, i))


class PinnedKey(Workload):
    """One pinned key; each command of KeyCommands.ROUND is a task of its
    own, and `keygen --seed 1` (the README key) is one more."""

    gens: tuple = ()
    genus = 0

    def __init__(self, s: Recorder, seed: int) -> None:
        super().__init__(s, seed)
        self.cmds = KeyCommands(s, self.key, self.gens, self.genus, self.payload_bytes)

    def pinned_keygen(self, rng: random.Random | None = None, key: Path | None = None) -> None:
        made = keygen(self.s, key or WORK / "keygen.key", 1)
        self.s.check(made in (None, (README_KEY, README_GENUS)),
                     f"keygen --seed 1 made {made}, expected {README_KEY} genus {README_GENUS}")

    def tasks(self) -> list[tuple[str, Task]]:
        return [("keygen", self.pinned_keygen),
                *((name, getattr(self.cmds, name)) for name in KeyCommands.ROUND)]


class Bulk(PinnedKey):
    """README key, 256 KiB payload: cost per value dominates."""

    gens, genus = README_KEY, README_GENUS
    # at 256 KiB key set-up is about 2% of an encode, and a run still
    # holds several samples of each command
    payload_bytes = 1 << 18

    def setup(self) -> None:
        self.pinned_keygen(key=self.key)


class Bigkey(PinnedKey):
    """Telescopic key with m=160000, 4 KiB payload: key set-up dominates.
    inspect checks the genus against BIGKEY_GENUS each time it runs."""

    gens, genus = BIGKEY, BIGKEY_GENUS
    payload_bytes = 4096

    def setup(self) -> None:
        i, j = BIGKEY_SALT_PAIR
        self.key.write_text("\n".join(
            ["frobkey/1", "mode telescopic", "seed 1", f"salt-pair {i} {j}", *map(str, BIGKEY)]
        ) + "\n")


class Keyring(Workload):
    """Many short commands on CLI-default keys: start-up and keygen dominate."""

    payload_bytes = 64

    def keys(self, rng: random.Random) -> None:
        """Per --mode: keygen with a seed from rng, one round of commands
        on the new key and a tampered stream."""
        for mode in MODES:
            made = keygen(self.s, self.key, rng.randrange(2**32), mode)
            if made is None:
                continue
            cmds = KeyCommands(self.s, self.key, *made, self.payload_bytes)
            for name in KeyCommands.ROUND:
                # a key without a salt pair has no salted path
                if "salt" not in name or "salt-pair" in self.key.read_text():
                    getattr(cmds, name)(rng)
            if cmds.payload is not None:
                cmds.tampered(rng)

    def tasks(self) -> list[tuple[str, Task]]:
        return [("keys", self.keys)]


WORKLOADS = {"bulk": Bulk, "bigkey": Bigkey, "keyring": Keyring}


def run_balanced(seconds: float, w: Workload) -> dict[str, int]:
    """Run w's tasks for `seconds`; return how often each ran.

    Every task runs once, in order.  Then the task with the least time
    spent so far, over the square root of its mean time, runs next, among
    those whose mean time still fits before the deadline.  So a task of
    mean time t gets a share of the run that grows as sqrt(t): a cheap
    command gets more samples than a dear one, and a dear one more than
    one sample where equal shares would leave it one.
    """
    tasks = w.tasks()
    spent = [0.0] * len(tasks)
    runs = [0] * len(tasks)
    deadline = time.perf_counter() + seconds

    def due(j: int) -> tuple:
        return (spent[j] / (spent[j] / runs[j]) ** 0.5 if runs[j] else 0.0, j)

    while True:
        now = time.perf_counter()
        fits = [j for j in range(len(tasks))
                if runs[j] == 0 or now + spent[j] / runs[j] <= deadline]
        if not fits:
            return {name: n for (name, _), n in zip(tasks, runs)}
        j = min(fits, key=due)
        name, task = tasks[j]
        task(w.rng(name, runs[j]))
        spent[j] += time.perf_counter() - now
        runs[j] += 1


def run_cycles(seconds: float, step: Callable[[int], None]) -> int:
    """Call step(0), step(1), ... while the next call fits in `seconds`."""
    deadline = time.perf_counter() + seconds
    i, last = 0, 0.0
    while i == 0 or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        i += 1
    return i
