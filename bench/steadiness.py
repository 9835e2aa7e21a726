#!/usr/bin/env python3
"""Steadiness report: sets of benchmark runs of one commit, one seed per run.

    python3 bench/steadiness.py

It runs two sets of ten runs of every workload in BENCHMARK.json, at its
run_seconds: seeds 1-10, then seeds 11-20.  For every workload and
end-to-end metric it prints each set's median, quartiles and quartile
spread (IQR / median, as `statistics.quantiles(values, n=4)` gives them),
and the change of the median between the two sets, against the metric's
bound in BENCHMARK.json.  Runs go one at a time; raw results go to
bench/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS, SEEDS = 2, 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict = {w: [] for w in names}
    for s in range(SETS):
        for w in names:
            results = []
            for i in range(SEEDS):
                seed = 1 + s * SEEDS + i
                r = run_once(w, seed, spec["run_seconds"])
                if not r["correct"]:
                    raise RuntimeError(f"{w} seed {seed}: outputs failed the checks")
                results.append(r)
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), file=sys.stderr)
            runs[w].append(results)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steadiness.json").write_text(json.dumps(runs, indent=1) + "\n")

    print("| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median [q1, q3] (spread)" for s in range(SETS))
        + " | median change | failed |")
    print("|---" * (5 + SETS) + "|")
    for w in names:
        failed = {r["failed"] / r["attempted"] for rs in runs[w] for r in rs}
        for m in spec["end_to_end"]:
            cells, medians = [], []
            for results in runs[w]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({(q3 - q1) / med:.1%})")
            worse = (medians[-1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            print(f"| {w} | {m['name']} ({m['unit']}) | {m['bound']:.0%} | "
                  + " | ".join(cells) + f" | {worse:+.1%} worse | "
                  + ", ".join(f"{f:.0%}" for f in sorted(failed)) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
