#!/usr/bin/env python3
"""One sha256 per workload of every analysis report a checkout renders.

    python3 tools/report_digest.py CHECKOUT [--seeds 0 1 2] [--quick]

The inputs are the analyses of the census-l1 and deep-l3 workloads that the
checkout's own bench/workloads.py builds for each seed (`--quick` keeps the
few of its quick rounds).  Each is parsed, analyzed at its level and degree
cap, and rendered by the checkout's CLI as `--format json` and as text.  The
script prints, per workload, the sha256 of all renders in order and the
number of analyses, so two checkouts whose digests agree print the same
bytes for every analysis of the benchmark.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

WORKLOADS = ("census-l1", "deep-l3")


def digests(checkout: Path, seeds: list[int], quick: bool = False) -> dict[str, tuple[str, int]]:
    """Workload -> (sha256 hex digest, analyses) for the checkout's program."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from biorder import cli, presentation, verdict
    import workloads

    out = {}
    for name in WORKLOADS:
        sha, count = hashlib.sha256(), 0
        for seed in seeds:
            for item in workloads.build(name, seed, quick).items:
                record = presentation.parse_presentation(item.text).record()
                report = verdict.analyze(record, max_level=item.max_level,
                                         max_degree=item.max_degree)
                sha.update((json.dumps(cli.analysis_to_dict(report), indent=2) + "\n"
                            + cli.analysis_to_text(report)).encode())
                count += 1
        out[name] = sha.hexdigest(), count
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="checkout whose src and bench to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--quick", action="store_true",
                        help="the few analyses of each workload's quick round")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "bench" / "workloads.py").is_file():
        parser.error(f"checkout {checkout} has no bench/workloads.py")
    for name, (digest, count) in digests(checkout, args.seeds, args.quick).items():
        print(f"{name} {digest} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
