"""tools/report_digest.py on this checkout: two quick runs print the same
sha256 for each workload's analyses, and the full seed-0 rounds print the
pinned ones."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


# The bytes of every analysis of the seed-0 census-l1 and deep-l3 rounds,
# recorded while levels 1-3 were still factored from their pieces.
PINNED = [
    "census-l1 6f8e69e41906a357096fe4a7fff99306bea4d8453947fb0467bad819149e3f08 1004",
    "deep-l3 f3e9b2c6c4b3ceca1de4cbf7d7b01f0dba6704dd406fbce898300cc2960b628b 16",
]


def _digest(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "report_digest.py"), str(REPO), *args],
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_two_quick_runs_agree():
    quick = ("--quick", "--seeds", "0", "1")
    lines = _digest(*quick)
    assert [line.split()[0] for line in lines] == ["census-l1", "deep-l3"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64} [1-9]\d*", line) for line in lines), lines
    assert _digest(*quick) == lines


def test_seed_0_rounds_are_pinned():
    assert _digest("--seeds", "0") == PINNED
