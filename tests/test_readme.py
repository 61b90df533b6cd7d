"""The README's command-line transcript replays line for line."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = {
    "gapstego": f"{shlex.quote(sys.executable)} -m gapstego.cli",
    "python3": shlex.quote(sys.executable),
}


def transcript() -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each `$ ` line in the README's fenced blocks."""
    steps, step, fenced = [], None, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, step = not fenced, None
        elif fenced and line.startswith("$ "):
            step = (line[2:], [])
            steps.append(step)
        elif step is not None:
            step[1].append(line)
    for _, printed in steps:
        while printed and not printed[-1]:
            printed.pop()
    return steps


def matches(shown: str, printed: str) -> bool:
    # a line the README cuts short with "..." matches any line that starts
    # and ends as it does
    head, cut, tail = shown.partition("...")
    return printed.startswith(head) and printed.endswith(tail) if cut else printed == shown


def test_transcript_replays(tmp_path):
    steps = transcript()
    subcommands = {cmd.split()[1] for cmd, _ in steps if cmd.startswith("gapstego ")}
    assert subcommands == {"keygen", "inspect", "encode", "decode", "analyze"}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for command, shown in steps:
        program, _, rest = command.partition(" ")
        done = subprocess.run(
            f"{PROGRAMS.get(program, program)} {rest}", shell=True, cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (command, done.stderr)
        printed = done.stdout.splitlines()
        assert len(printed) == len(shown), (command, printed)
        for a, b in zip(shown, printed):
            assert matches(a, b), (command, a, b)
