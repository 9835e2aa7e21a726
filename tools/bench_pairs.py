#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts on one workload and seed.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload census-l1 \\
        --seed 0 --pairs 10

Each pair runs `bench/run.py` of both checkouts, one after the other, for the
`run_seconds` of BENCHMARK.json, and the side that goes first alternates from
pair to pair, so a drift in machine speed falls on both sides alike.  Every
run must report `correct: true`.
The script prints each pair and, per end-to-end metric of BENCHMARK.json,
the median change of the change against the parent and how many pairs the
change won, then the parent's IQR and whether the claim rule is met: at
least ten pairs were run, the change is better in at least 9/10 of them (a
tie counts for neither side), and its median is better than the parent's by
more than the parent's IQR.  It also judges the no-regression rule:
`worse` when the change's median is worse than the parent's by more than the
metric's `bound` in BENCHMARK.json, taken relative to the parent's median;
else `unresolved` when either side's IQR, relative to its median, exceeds
the bound, unless every change run is better than every parent run; else
`ok`.  Then it prints every far-out run, which alone
can move a median of few pairs: a value outside [q1 - 3 IQR, q3 + 3 IQR] of
its side that also differs from its side's median by more than the metric's
`bound` in BENCHMARK.json (at five pairs the IQR of a steady metric is so
small that the fence alone names runs a few percent off).  It writes
BENCH_<workload>.json at the root of the repository it sits in: for each
side the commit, and the median, quartiles, IQR and raw values of each
end-to-end metric, under `claim` each metric's wins, pairs, parent IQR and
whether the claim rule is met, under `regression` each metric's relative
worsening, bound, both sides' relative IQRs, whether every change run beat
every parent run, and the verdict, and under `outliers` the far-out values with
their side, metric and pair.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def commit_of(checkout: Path) -> str | None:
    """HEAD of the checkout, with `+dirty` when its src or bench, which the
    benchmark runs, differ from it; None when it is not a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--", "src", "bench").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one `bench/run.py` run, parsed; exits the
    script when the run fails or reports a wrong output."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"bench run in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def summary(values: list[float]) -> dict:
    """Median, quartiles and IQR (inclusive method, so 1 value is allowed)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no bench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {side: {name: [] for name in better} for side in SIDES}
    wins = dict.fromkeys(better, 0)
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_once(checkouts[side], args.workload, args.seed, seconds)
                   for side in order}
        cells = []
        for name, direction in better.items():
            got = {side: results[side]["metrics"].get(name, {}).get("value") for side in SIDES}
            if None in got.values():
                continue
            for side in SIDES:
                values[side][name].append(got[side])
            sign = 1 if direction == "higher" else -1
            wins[name] += sign * (got["change"] - got["parent"]) > 0
            cells.append(f"{name} {got['parent']:.6g} -> {got['change']:.6g}")
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "; ".join(cells), flush=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "pairs": args.pairs}
    for side in SIDES:
        record[side] = {"commit": commit_of(checkouts[side]),
                        "metrics": {name: summary(v) for name, v in values[side].items() if v}}
    record["median_change"], record["claim"], record["regression"] = {}, {}, {}
    for name in better:
        if not values["parent"][name]:
            continue
        before = record["parent"]["metrics"][name]["median"]
        after = record["change"]["metrics"][name]["median"]
        change = record["median_change"][name] = after / before - 1
        pairs = len(values["parent"][name])
        print(f"{name}: median {before:.6g} -> {after:.6g} ({change:+.1%}), "
              f"change better in {wins[name]}/{pairs} pairs")
        iqr = record["parent"]["metrics"][name]["iqr"]
        gain = after - before if better[name] == "higher" else before - after
        met = pairs >= 10 and 10 * wins[name] >= 9 * pairs and gain > iqr
        record["claim"][name] = {"wins": wins[name], "pairs": pairs, "parent_iqr": iqr,
                                 "met": met}
        print(f"claim {name}: parent IQR {iqr:.6g}, median gain {gain:.6g}, "
              f"better in {wins[name]}/{pairs} pairs: claim rule {'met' if met else 'not met'}")
        worse_by = -gain / before
        spread = {side: record[side]["metrics"][name]["iqr"]
                  / abs(record[side]["metrics"][name]["median"]) for side in SIDES}
        sign = 1 if better[name] == "higher" else -1
        beats_all = (min(sign * v for v in values["change"][name])
                     > max(sign * v for v in values["parent"][name]))
        if worse_by > bound[name]:
            verdict = "worse"
        elif max(spread.values()) > bound[name] and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        record["regression"][name] = {"worse_by": worse_by, "bound": bound[name],
                                      "parent_spread": spread["parent"],
                                      "change_spread": spread["change"],
                                      "change_beats_every_parent_run": beats_all,
                                      "verdict": verdict}
        print(f"regression {name}: median worse by {worse_by:+.1%}, IQR/median "
              f"{spread['parent']:.1%} parent, {spread['change']:.1%} change, bound "
              f"{bound[name]:.0%}: {verdict}")
    record["outliers"] = []
    for side in SIDES:
        for name, stats in record[side]["metrics"].items():
            lo, hi = stats["q1"] - 3 * stats["iqr"], stats["q3"] + 3 * stats["iqr"]
            for i, value in enumerate(stats["values"]):
                off = abs(value - stats["median"]) > bound[name] * abs(stats["median"])
                if off and not lo <= value <= hi:
                    record["outliers"].append(
                        {"side": side, "metric": name, "pair": i + 1, "value": value})
                    print(f"outlier: {side} {name} in pair {i + 1}: {value:.6g} "
                          f"outside [{lo:.6g}, {hi:.6g}]")
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
