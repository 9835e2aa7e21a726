"""Command-line driver: analyze presentations, manage the corpus, run probes.

Exit codes: 0 ok, 2 parse/input error, 3 analysis error, 4 usage error.
Output is deterministic: the same input and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import orderprops
from .exactalg import NonSquarefreeError, Poly, ZeroPolynomialError
from .freegroup import (FreeMap, NotAnAutomorphismError, check_generator_names,
                        format_word, parse_word)
from .orderprops import (NotPositiveError, PremiseUnmetError, ProbeConfig,
                         ProbeResult)
from .presentation import PresentationError, parse_presentation
from .verdict import (AnalysisError, AnalysisReport, InconsistentPremisesError,
                      KnotRecord, analyze)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ANALYSIS = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def poly_text(p: Poly, var: str = "t") -> str:
    if p.is_zero:
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = f"{var}" if mag == 1 else f"{mag}{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{mag}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def _level_dict(level, names) -> dict:
    return {
        "level": level.level,
        "basis": [e.name(names) for e in level.action.basis.elements],
        "matrix": [list(row) for row in level.action.matrix.rows],
        "charpoly": list(level.char_poly.coeffs),
        "factors": [
            {
                "coeffs": list(f.poly.coeffs),
                "multiplicity": f.multiplicity,
                "pos_real_roots": f.positive_real_roots,
                "real_roots": f.real_roots,
            }
            for f in level.factors.factors
        ],
        "flags": {
            "has_rational_root": level.factors.has_rational_root,
            "all_factors_have_positive_root": level.factors.all_factors_have_positive_root,
            "some_factor_all_Lambda": level.factors.some_factor_all_lambda,
        },
    }


def analysis_to_dict(report: AnalysisReport) -> dict:
    names = report.record.generator_names
    levels = [_level_dict(level, names) for level in report.levels]
    return {
        "name": report.record.name,
        "levels": levels,
        "premises": dict(report.premises),
        "verdict": {
            "outcome": report.verdict.outcome,
            "level": report.verdict.level,
            "rule": report.verdict.rule,
            "citation": report.verdict.justification,
        },
    }


def _matrix_lines(matrix) -> list[str]:
    cells = [[str(x) for x in row] for row in matrix.rows]
    width = max(len(s) for row in cells for s in row)
    return ["[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells]


def analysis_to_text(report: AnalysisReport) -> str:
    rec = report.record
    out = [f"knot: {rec.name} ({'fibered' if rec.fibered else 'not fibered'})",
           f"generators: {' '.join(rec.generator_names)}"]
    for level in report.levels:
        out.append("")
        out.append(f"level {level.level}")
        out.append(f"  basis: {' '.join(e.name(rec.generator_names) for e in level.action.basis.elements)}")
        out.append("  matrix:")
        out.extend("    " + line for line in _matrix_lines(level.action.matrix))
        out.append(f"  char poly: {poly_text(level.char_poly)}")
        out.append(f"  coeffs (asc): {list(level.char_poly.coeffs)}")
        out.append("  factors:")
        for f in level.factors.factors:
            out.append(f"    ({poly_text(f.poly)})^{f.multiplicity}"
                       f"  pos-real-roots={f.positive_real_roots}"
                       f" neg-real-roots={f.negative_real_roots}"
                       f" real-roots={f.real_roots}")
        flags = level.factors
        out.append(f"  flags: has_rational_root={flags.has_rational_root}"
                   f" all_factors_have_positive_root={flags.all_factors_have_positive_root}"
                   f" some_factor_all_Lambda={flags.some_factor_all_lambda}")
    out.append("")
    out.append("premises: " + " ".join(f"{k}={v}" for k, v in report.premises.items()))
    v = report.verdict
    where = f" at level {v.level}" if v.level is not None else ""
    rule = f" via {v.rule}" if v.rule else ""
    out.append(f"verdict: {v.outcome}{where}{rule}")
    out.append(f"  {v.justification}")
    return "\n".join(out) + "\n"


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# target loading
# ---------------------------------------------------------------------------

def _load_record(target: str) -> KnotRecord:
    if target.startswith("corpus:"):
        name = target[len("corpus:"):]
        return corpus_mod.corpus_entry(name).record
    with open(target, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read()).record()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(ns) -> int:
    try:
        record = _load_record(ns.target)
    except (OSError, KeyError, PresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = analyze(record, max_level=ns.max_level, max_degree=ns.max_degree)
    except (AnalysisError, NotAnAutomorphismError, InconsistentPremisesError,
            NonSquarefreeError, ZeroPolynomialError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    if ns.format == "json":
        _emit_json(analysis_to_dict(report))
    else:
        sys.stdout.write(analysis_to_text(report))
    return EXIT_OK


def _cmd_corpus(ns) -> int:
    if ns.action == "list":
        if ns.format == "json":
            _emit_json(list(corpus_mod.CORPUS_NAMES))
        else:
            for name in corpus_mod.CORPUS_NAMES:
                print(name)
        return EXIT_OK
    if ns.action == "show":
        if not ns.name:
            print("error: corpus show needs a name", file=sys.stderr)
            return EXIT_USAGE
        try:
            text = corpus_mod.corpus_text(ns.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_PARSE
        sys.stdout.write(text)
        return EXIT_OK
    # verify
    results = []
    all_ok = True
    for entry in corpus_mod.corpus_entries():
        report = analyze(entry.record, max_level=entry.expected_level)
        ok = (report.verdict.outcome == entry.expected_outcome
              and report.verdict.rule == entry.expected_rule)
        all_ok = all_ok and ok
        results.append((entry, report, ok))
    if ns.format == "json":
        _emit_json({
            "results": [
                {
                    "name": entry.name,
                    "outcome": report.verdict.outcome,
                    "rule": report.verdict.rule,
                    "level": report.verdict.level,
                    "expected_outcome": entry.expected_outcome,
                    "expected_rule": entry.expected_rule,
                    "ok": ok,
                }
                for entry, report, ok in results
            ],
            "ok": all_ok,
        })
    else:
        for entry, report, ok in results:
            print(f"{entry.name}: {report.verdict.outcome} via {report.verdict.rule}"
                  f" (expected {entry.expected_outcome}) {'OK' if ok else 'MISMATCH'}")
        print(f"{'all' if all_ok else 'NOT all'} {len(results)} corpus verdicts match")
    return EXIT_OK if all_ok else EXIT_ANALYSIS


def _config_json(cfg: ProbeConfig) -> dict:
    return {"seed": cfg.seed, "samples": cfg.samples,
            "max_word_length": cfg.max_word_length, "search_bound": cfg.search_bound}


def _probe_json(result: ProbeResult, cfg: ProbeConfig, names) -> dict:
    return {
        "probe": result.name,
        "config": _config_json(cfg),
        "trials": result.trials,
        "status": result.status,
        "failures": [_failure_text(f, names) for f in result.failures],
        "warnings": list(result.warnings),
    }


def _failure_text(failure, names) -> str:
    if isinstance(failure, tuple):
        return ", ".join(_failure_text(f, names) for f in failure)
    if hasattr(failure, "letters"):
        return format_word(failure, names)
    return str(failure)


def _probe_text(result: ProbeResult, cfg: ProbeConfig, names) -> str:
    out = [f"probe: {result.name}",
           f"config: seed={cfg.seed} samples={cfg.samples}"
           f" max_word_length={cfg.max_word_length} search_bound={cfg.search_bound}",
           f"trials: {result.trials}",
           f"status: {result.status}"]
    for w in result.warnings:
        out.append(f"warning: {w}")
    for f in result.failures:
        out.append(f"counterexample: {_failure_text(f, names)}")
    return "\n".join(out) + "\n"


def _load_map(target: str) -> tuple[FreeMap, tuple[str, ...]]:
    if target.startswith("corpus:"):
        entry = corpus_mod.corpus_entry(target[len("corpus:"):])
        return entry.record.phi, entry.record.generator_names
    with open(target, "r", encoding="utf-8") as fh:
        pf = parse_presentation(fh.read())
    return pf.free_map(), pf.generator_names


# probes taking a word (--g) and probes taking a map (--map)
_WORD_PROBES = {"subgroup": orderprops.subgroup_probe,
                "normality": orderprops.normality_probe,
                "dominance": orderprops.dominant_check}
_MAP_PROBES = {"order-preservation": orderprops.order_preservation_probe,
               "invariance": orderprops.invariance_probe,
               "semidirect": orderprops.semidirect_order_probe}


def _cmd_probe(ns) -> int:
    try:
        cfg = ProbeConfig(seed=ns.seed, samples=ns.samples,
                          max_word_length=ns.max_word_length, search_bound=ns.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        names = check_generator_names(ns.generators.split())
    except ValueError as exc:
        print(f"error: --generators: {exc}", file=sys.stderr)
        return EXIT_USAGE
    phi = None
    if ns.map:
        try:
            phi, names = _load_map(ns.map)
        except (OSError, KeyError, PresentationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE

    def word_arg(text, flag):
        if text is None:
            print(f"error: probe {ns.name} needs {flag}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        try:
            return parse_word(text, names)
        except ValueError as exc:
            print(f"error: {flag}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    try:
        if ns.name in _WORD_PROBES:
            result = _WORD_PROBES[ns.name](word_arg(ns.g, "--g"), cfg)
        elif ns.name in _MAP_PROBES:
            if phi is None:
                print(f"error: probe {ns.name} needs --map", file=sys.stderr)
                return EXIT_USAGE
            result = _MAP_PROBES[ns.name](phi, cfg)
        elif ns.name == "commutator":
            result = orderprops.commutator_infinitesimal_probe(len(names), cfg)
        else:  # weak-comparability
            f = word_arg(ns.f, "--f")
            g = word_arg(ns.g, "--g")
            search = orderprops.weak_comparability_search(f, g, cfg)
            if ns.format == "json":
                _emit_json({
                    "probe": "weak-comparability",
                    "config": _config_json(cfg),
                    "status": search.status,
                    "witness": (format_word(search.witness, names)
                                if search.witness is not None else None),
                    "checked": search.checked,
                })
            else:
                print("probe: weak-comparability")
                print(f"config: bound={search.bound}")
                print(f"status: {search.status}")
                if search.witness is not None:
                    print(f"witness: {format_word(search.witness, names)}")
                print(f"checked: {search.checked}")
            return EXIT_OK
    except PremiseUnmetError as exc:
        if ns.format == "json":
            _emit_json({"probe": ns.name, "status": "PREMISE_UNMET", "detail": str(exc)})
        else:
            print(f"probe: {ns.name}")
            print("status: PREMISE_UNMET")
            print(f"detail: {exc}")
        return EXIT_OK
    except (NotPositiveError, NotAnAutomorphismError, ValueError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS

    if ns.format == "json":
        _emit_json(_probe_json(result, cfg, names))
    else:
        sys.stdout.write(_probe_text(result, cfg, names))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biorder",
                     description="Exact bi-orderability obstructions for Z x| F_n knot groups")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a presentation file or corpus:NAME")
    pa.add_argument("target", help="path to a .knot file or corpus:NAME")
    pa.add_argument("--max-level", type=int, default=1, choices=(0, 1, 2, 3))
    pa.add_argument("--max-degree", type=int, default=8)
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=_cmd_analyze)

    pc = sub.add_parser("corpus", help="list, show, or verify the bundled corpus")
    pc.add_argument("action", choices=("list", "show", "verify"))
    pc.add_argument("name", nargs="?", help="knot name for `show`")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=_cmd_corpus)

    pp = sub.add_parser("probe", help="run a property probe in the Magnus bi-order")
    pp.add_argument("name", choices=(*_WORD_PROBES, "commutator", *_MAP_PROBES,
                                     "weak-comparability"))
    pp.add_argument("--g", help="word argument (e.g. `x` or `B X`)")
    pp.add_argument("--f", help="second word argument for weak-comparability")
    pp.add_argument("--map", help="presentation file or corpus:NAME supplying the map")
    pp.add_argument("--generators", default="x y",
                    help="generator names for plain word probes (default: `x y`)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--samples", type=int, default=200)
    pp.add_argument("--max-word-length", type=int, default=10)
    pp.add_argument("--bound", type=int, default=4)
    pp.add_argument("--format", choices=("text", "json"), default="text")
    pp.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
