"""The Apery table of a key at the multiplicity limit, built in little more than its own memory.

Run from the repository root:

    python tests/table_memory.py

It runs `gapstego inspect` on keys with m = 10^7 (MAX_MULTIPLICITY)
and m = 10^7 - 1, whose tables hold about 10^7 int64, and a bare
`python -c "import gapstego.cli"`, each as a child process, and prints
the peak RSS of each (os.wait4's ru_maxrss).  At the odd m every row of
the table holds gaps of all 16 residue classes, which inspect counts.
It exits 1 unless each inspect's peak is within 2x the table above the
bare import's.

A child's ru_maxrss counts the memory of the process that started it, so
this script holds nothing large itself.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from round_trip_memory import CLI, peak_mb

M = 10**7
TABLE_MB = M * 8 / 2**20  # in ru_maxrss's unit, KiB / 1024
GROWTH = 2.0


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        bare = peak_mb(["-c", "import gapstego.cli"])
        for m in (M, M - 1):
            key = Path(tmp) / f"{m}.key"
            key.write_text(f"frobkey/1\nmode appendix-c\nseed 0\n"
                           f"{m}\n{m + 1}\n{m + 7}\n{2 * m + 3}\n{3 * m + 11}\n")
            inspect = peak_mb([*CLI, "inspect", "--key", key])
            over = inspect - bare
            ok = ok and over <= GROWTH * TABLE_MB
            print(f"import gapstego.cli peak RSS {bare:6.1f} MB; inspect at m = {m} peak RSS"
                  f" {inspect:6.1f} MB: {over:.1f} MB over, x{over / TABLE_MB:.2f} of the"
                  f" {TABLE_MB:.1f} MB table {'ok' if over <= GROWTH * TABLE_MB else f'over x{GROWTH}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
