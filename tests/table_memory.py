"""The Apery table of a key at the multiplicity limit, built in little more than its own memory.

Run from the repository root:

    python tests/table_memory.py

It runs `gapstego inspect` on a key with m = 10^7 (MAX_MULTIPLICITY),
whose table holds 10^7 int64, and a bare `python -c "import gapstego.cli"`,
each as a child process, and prints the peak RSS of each (os.wait4's
ru_maxrss).  It exits 1 unless inspect's peak is within 2x the table above
the bare import's.

A child's ru_maxrss counts the memory of the process that started it, so
this script holds nothing large itself.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from round_trip_memory import CLI, peak_mb

M = 10**7
KEY = f"frobkey/1\nmode appendix-c\nseed 0\n{M}\n{M + 1}\n{M + 7}\n{2 * M + 3}\n{3 * M + 11}\n"
TABLE_MB = M * 8 / 2**20  # in ru_maxrss's unit, KiB / 1024
GROWTH = 2.0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        key = Path(tmp) / "big.key"
        key.write_text(KEY)
        bare = peak_mb(["-c", "import gapstego.cli"])
        inspect = peak_mb([*CLI, "inspect", "--key", key])
    over = inspect - bare
    ok = over <= GROWTH * TABLE_MB
    print(f"import gapstego.cli peak RSS {bare:6.1f} MB; inspect at m = {M} peak RSS {inspect:6.1f} MB:"
          f" {over:.1f} MB over, x{over / TABLE_MB:.2f} of the {TABLE_MB:.1f} MB table"
          f" {'ok' if ok else f'over x{GROWTH}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
