"""tools/report_digest.py on this checkout: two quick runs print the same
sha256 for each workload's analyses."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _digest() -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "report_digest.py"), str(REPO),
         "--quick", "--seeds", "0", "1"],
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_two_quick_runs_agree():
    lines = _digest()
    assert [line.split()[0] for line in lines] == ["census-l1", "deep-l3"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64} [1-9]\d*", line) for line in lines), lines
    assert _digest() == lines
