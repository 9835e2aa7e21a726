#!/usr/bin/env python3
"""Benchmark of biorder: census-l1, deep-l3 and magnus-probes.

    python3 bench/run.py --workload census-l1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --selfcheck

A run builds the workload's round of operations from --seed, measures set-up
in fresh processes, runs as many whole rounds as take about --seconds at
reference speed, reads the peak memory, and then checks every output with
the independent oracles of `oracles.py`.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs one untraced round and then traced rounds, and reports the
per-layer metrics and the tracing overhead.  All times are reference-speed
seconds (see `calib.py`).  The last line of stdout is one JSON object; the
run's raw seconds and calibration times go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_RUNS = 7           # fresh processes per run, after one warm-up
SLICE_S = 0.2            # operations share the calibration of their slice of
SLICE_SAMPLES = 10       # at least this much operation time and these samples
FAILED = object()

# A fresh interpreter pays this before `biorder analyze` reaches its first
# analysis: importing the CLI (which imports the package) and loading the
# bundled corpus.  Before t0 the child loads only `calib` (which needs just
# `signal` and `time`), so the standard modules the program imports are timed.
SETUP_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
import calib
with calib.Sampler() as sampler:
    sampler.block(0.02)
    t0 = sampler.work_clock()
    sys.path.insert(0, sys.argv[2])
    import biorder.cli
    t1 = sampler.work_clock()
    biorder.cli.corpus_mod.corpus_entries()
    t2 = sampler.work_clock()
    sampler.block(0.02)
import json
print(json.dumps({"import": t1 - t0, "corpus": t2 - t1, "factor": sampler.factor(0),
                  "file": biorder.__file__}))
"""

PER_LAYER = (
    ("exactalg.factor_over_Q.s", "s"),
    ("exactalg.SturmChain.build.calls", "count"),
    ("exactalg.SturmChain.build.s", "s"),
    ("exactalg.rational_roots.s", "s"),
    ("exactalg.has_positive_real_root.s", "s"),
    ("exactalg.all_roots_positive_real.s", "s"),
    ("exactalg.squarefree_decomposition.calls", "count"),
    ("exactalg.char_poly.s", "s"),
    ("exactalg.char_poly.dim4_sum", "count"),
    ("lcs.lcs_action.s", "s"),
    ("lcs.lcs_action.dim_sum", "count"),
    ("magnus.expand.s", "s"),
    ("magnus.series_mul.s", "s"),
    ("magnus.series_mul.pairs", "count"),
    ("magnus.lowest_term.calls", "count"),
    ("magnus.lowest_term.s", "s"),
    ("magnus.lowest_term.truncations", "count"),
    ("magnus.is_infinitesimal.calls", "count"),
    ("magnus.is_infinitesimal.s", "s"),
    ("freegroup.verify_automorphism.calls", "count"),
    ("freegroup.apply_map.s", "s"),
    *((f"orderprops.{p}.s", "s") for p in (
        "subgroup_probe", "normality_probe", "dominant_check",
        "commutator_infinitesimal_probe", "order_preservation_probe",
        "invariance_probe", "semidirect_order_probe", "weak_comparability_search")),
    ("orderprops.draws", "count"),
    ("orderprops.trials", "count"),
    ("orderprops.accept_ratio", "ratio"),
    ("presentation.parse_presentation.s", "s"),
    ("cli.render.s", "s"),
    ("verdict.level_report.s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def measure_setup(runs: int = SETUP_RUNS) -> list[dict]:
    """Set-up samples from fresh processes; the first one only warms caches."""
    samples = []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(BENCH), str(SRC)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if not Path(sample["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported biorder from {sample['file']}")
        if i:
            samples.append(sample)
    return samples


class Phase:
    """Whole rounds of a workload's operations, timed while the sampler runs."""

    def __init__(self, workload, sampler, summaries=None, tracer=None):
        self.workload = workload
        self.sampler = sampler
        self.tracer = tracer
        self.summaries = summaries or [None] * len(workload.ops)
        self.ref: list[float] = []        # reference-speed seconds per operation
        self.raw: list[float] = []
        self.factors: list[tuple[int, float]] = []   # (operations, factor) per slice
        self.attempted = self.failed = self.rounds = 0
        self.failures: list[str] = []
        self.nondeterministic: list[int] = []
        self.elapsed = 0.0

    def run(self, rounds: int):
        """Run `rounds` whole rounds."""
        pending: list[float] = []
        sampler = self.sampler
        clock = sampler.work_clock
        with sampler:
            first = len(sampler.samples)
            start = time.perf_counter()
            while True:
                for i, op in enumerate(self.workload.ops):
                    self.attempted += 1
                    t0 = clock()
                    try:
                        result = op()
                    except Exception:         # counted as failed, a check error
                        self.failed += 1
                        self.failures.append(f"operation {i}: {traceback.format_exc()}")
                        if self.summaries[i] is None:
                            self.summaries[i] = FAILED
                        continue
                    pending.append(clock() - t0)
                    summary = self.workload.summarize(result)
                    if self.summaries[i] is None or self.summaries[i] is FAILED:
                        self.summaries[i] = summary
                    elif summary != self.summaries[i]:
                        self.nondeterministic.append(i)
                    if (sum(pending) >= SLICE_S
                            and len(sampler.samples) - first >= SLICE_SAMPLES):
                        self._close_slice(first, pending)
                        first = len(sampler.samples)
                self.rounds += 1
                if self.rounds == rounds:
                    break
            self.elapsed = time.perf_counter() - start
            if pending:
                if len(sampler.samples) - first < SLICE_SAMPLES:
                    sampler.block(SLICE_SAMPLES * calib.CAL_REF)
                self._close_slice(first, pending)
        return self

    def _close_slice(self, first: int, pending: list[float]):
        factor = self.sampler.factor(first)
        self.factors.append((len(pending), factor))
        self.ref.extend(d * factor for d in pending)
        self.raw.extend(pending)
        if self.tracer is not None:
            for name, value in self.tracer.take_raw().items():
                self.tracer.ref_self[name] += value * factor
        pending.clear()


def end_to_end(setup: list[dict], phase: Phase, rss_mb: float) -> dict:
    """The end-to-end metrics; the operation metrics only if one succeeded."""
    metrics = {
        "setup_s": {"value": statistics.median((s["import"] + s["corpus"]) * s["factor"]
                                               for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    if phase.ref:
        metrics["op_s.p50"] = {"value": statistics.median(phase.ref), "unit": "s"}
        metrics["ops_per_s"] = {"value": len(phase.ref) / sum(phase.ref), "unit": "1/s"}
    return metrics


def per_layer(setup: list[dict], base: Phase, traced: Phase, tracer) -> dict:
    n = len(traced.ref)
    draws = tracer.counts["orderprops.draws"]
    special = {
        "orderprops.accept_ratio": tracer.counts["orderprops.trials"] / draws if draws else 0.0,
        "setup.import_s": statistics.median(s["import"] * s["factor"] for s in setup),
        "trace.overhead_s": (statistics.mean(traced.ref) - statistics.mean(base.ref)
                             if traced.ref and base.ref else None),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if not n and name not in special:
            continue
        if name in special:
            value = special[name]
            if value is None:
                continue
        elif name.endswith(".s"):
            value = tracer.ref_self[name[:-2]] / n
        elif name.endswith(".calls"):
            value = tracer.calls[name[:-6]] / n
        else:
            value = tracer.counts[name] / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def check(workload, summaries) -> list[str]:
    """Independent checks of every distinct output (imports sympy)."""
    import inputs
    import oracles
    from biorder import corpus
    errors = []
    if workload.name == "magnus-probes":
        import workloads
        maps = {n: inputs.read_presentation(corpus.corpus_text(n))[2]
                for n in ("figure8", "trefoil")}
        for b, s in zip(workload.items, summaries):
            if s is not FAILED:
                errors += oracles.check_battery(b, s, maps["figure8"], maps["trefoil"],
                                                workloads.PROBE_SAMPLES, workloads.PROBE_BOUND)
    else:
        facts = oracles.SympyFacts()
        for item, s in zip(workload.items, summaries):
            if s is not FAILED:
                errors += oracles.check_analysis(item, s, facts)
    return errors


def import_program():
    """Import the checkout's own biorder, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import biorder
    if not Path(biorder.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: biorder imported from {biorder.__file__}, not {SRC}")
    import workloads
    return workloads


def selfcheck() -> int:
    """A few operations of each workload through the same checks."""
    workloads = import_program()
    ok = True
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=0, quick=True)
        phase = Phase(wl, calib.Sampler()).run(1)
        errors = check(wl, phase.summaries) + phase.failures
        ok = ok and not errors
        print(f"{name}: {phase.attempted} operations, "
              + ("ok" if not errors else f"{len(errors)} errors"))
        for e in errors[:10]:
            print(f"  {e}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("census-l1", "deep-l3", "magnus-probes"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run a few operations of each workload through the checks")
    args = parser.parse_args(argv)
    if not (SRC / "biorder" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")

    setup = measure_setup()
    workloads = import_program()
    wl = workloads.build(args.workload, args.seed)
    sampler = calib.Sampler()
    if args.trace:
        import tracer as tracing
        base = Phase(wl, sampler).run(1)
        tracer = tracing.Tracer(sampler.work_clock)
        tracer.install(workloads)
        try:
            phase = Phase(wl, sampler, summaries=list(base.summaries), tracer=tracer)
            phase.run(wl.rounds(args.seconds - wl.round_s))
        finally:
            tracer.uninstall()
        metrics = per_layer(setup, base, phase, tracer)
        phases = [base, phase]
    else:
        phase = Phase(wl, sampler).run(wl.rounds(args.seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = end_to_end(setup, phase, rss_mb)
        phases = [phase]

    errors = check(wl, phase.summaries)
    errors += [f"operation {i} gave a different output in a later round"
               for p in phases for i in p.nondeterministic]
    errors += [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cal_ref": calib.CAL_REF, "result": result,
        "setup_raw": setup,
        "phases": [{"rounds": p.rounds, "elapsed_raw_s": p.elapsed, "raw_s": p.raw,
                    "ref_s": p.ref, "slice_factors": p.factors} for p in phases],
        "calibration_samples": len(sampler.samples),
        "calibration_mean_s": statistics.fmean(sampler.samples),
        "errors": errors[:50],
    }
    if args.trace:
        record["self_s"] = dict(sorted(tracer.ref_self.items()))
        record["calls"] = dict(sorted(tracer.calls.items()))
        record["counts"] = dict(sorted(tracer.counts.items()))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
