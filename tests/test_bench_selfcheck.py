"""The benchmark's self-check runs every workload briefly against its oracles.

`bench/run.py --selfcheck` checks each workload's outputs with the
benchmark's independent oracles (Brandt trace formula + Newton identities,
sympy, the rule table, the published corpus verdicts and probe theory) and
prints one `<workload>: N operations, ok` line per workload.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    run = subprocess.run([sys.executable, "bench/run.py", "--selfcheck"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    for workload in ("census-l1", "deep-l3", "magnus-probes"):
        assert any(line.startswith(f"{workload}: ") and line.endswith(" ok")
                   for line in lines), run.stdout
