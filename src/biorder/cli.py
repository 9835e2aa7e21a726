"""Command-line driver: analyze presentations, manage the corpus, run probes.

Exit codes: 0 ok, 2 parse/input error, 3 analysis error, 4 usage error.
Output is deterministic: the same input and flags produce identical bytes.

Each command is a function of its parsed arguments that returns its exit code,
one document and the function that renders the document as text, and writes
nothing.  `main` alone reads `--format`, printing the document as JSON or as
its text, and alone writes: that output, then the one stderr line of a
refused flag, word or target, or of an analysis error.  A reader that closes
stdout or stderr early ends that output quietly, with the command's own exit
code.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from . import orderprops
from .exactalg import Poly
from .freegroup import check_generator_names, format_word, parse_word
from .lcs import DEGREE_CAP, _splits
from .orderprops import NotPositiveError, PremiseUnmetError, ProbeConfig
from .presentation import KnotRecord, PresentationError, parse_presentation
from .verdict import (AnalysisReport, InconsistentPremisesError, analyze,
                      require_automorphism)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ANALYSIS = 3
EXIT_USAGE = 4
MAX_BOUND = 1000  # keeps weak-comparability's checked under 1700 digits (str limit: 4300)
MAX_SAMPLES = 10000  # with MAX_WORD_LENGTH: seconds per default probe, see README
MAX_WORD_LENGTH = 100
MAX_DEGREE = 100  # corpus level 3 needs 60; degree 5200 ran out of 2 GB


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _write(sys.stderr, f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write(stream, text: str) -> None:
    """Write text to stream and flush it.  If the reader has closed the
    stream, the rest of its output goes to devnull, so the interpreter's
    flush at exit stays quiet and the command keeps its exit code."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


class _Refusal(Exception):
    """A flag, word or target that a command refuses: `main` writes
    `error: <message>` to stderr and exits with `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def poly_text(p: Poly) -> str:
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
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{i}" if mag == 1 else f"{mag}t^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def _basis_names(report: AnalysisReport) -> list[list[str]]:
    """Each level's basis names, each level's from the ones below it: the
    name of a basis word l = uv is [name(u),name(v)], its standard bracketing
    with generator names at the letters."""
    names = [list(report.record.generator_names)]
    n = len(names[0])
    for k in range(2, len(report.levels) + 1):
        names.append([f"[{names[i - 1][a]},{names[k - i - 1][b]}]"
                      for i, a, b in _splits(n, k)])
    return names


def _level_dict(level, basis: list[str]) -> dict:
    return {
        "level": level.level,
        "basis": basis,
        "matrix": [list(row) for row in level.action.matrix.rows],
        "charpoly": list(level.factors.input.coeffs),
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
    levels = [_level_dict(level, basis)
              for level, basis in zip(report.levels, _basis_names(report))]
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
    for level, basis in zip(report.levels, _basis_names(report)):
        out.append("")
        out.append(f"level {level.level}")
        out.append(f"  basis: {' '.join(basis)}")
        out.append("  matrix:")
        out.extend("    " + line for line in _matrix_lines(level.action.matrix))
        out.append(f"  char poly: {poly_text(level.factors.input)}")
        out.append(f"  coeffs (asc): {list(level.factors.input.coeffs)}")
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_record(target: str) -> KnotRecord:
    """The record of corpus:NAME or of a presentation file; a target that does
    not load is refused with EXIT_PARSE."""
    try:
        if target.startswith("corpus:"):
            return corpus_mod.corpus_entry(target[len("corpus:"):]).record
        with open(target, "r", encoding="utf-8-sig") as fh:  # a leading BOM is skipped
            return parse_presentation(fh.read()).record()
    except (OSError, UnicodeDecodeError, LookupError, PresentationError) as exc:
        raise _Refusal(EXIT_PARSE, str(exc)) from None


def _check_ranges(*checks) -> None:
    """Refuse the first (flag, value, low, high) whose value is out of range."""
    for flag, value, low, high in checks:
        if not low <= value <= high:
            raise _Refusal(EXIT_USAGE, f"{flag}: must be in {low}..{high}")


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _cmd_analyze(ns):
    _check_ranges(("--max-degree", ns.max_degree, 1, MAX_DEGREE))
    report = analyze(_load_record(ns.target), max_level=ns.max_level, max_degree=ns.max_degree)
    # the text also shows the negative-root counts and the fibered flag, which the JSON lacks
    return EXIT_OK, analysis_to_dict(report), lambda _: analysis_to_text(report)


def _cmd_list(ns):
    return EXIT_OK, list(corpus_mod.CORPUS_NAMES), _lines


def _cmd_show(ns):
    try:
        return EXIT_OK, corpus_mod.corpus_text(ns.name), str
    except LookupError as exc:
        raise _Refusal(EXIT_PARSE, str(exc)) from None


def _cmd_verify(ns):
    results = []
    for entry in corpus_mod.corpus_entries():
        v = analyze(entry.record, max_level=entry.expected_level).verdict
        ok = v.outcome == entry.expected_outcome and v.rule == entry.expected_rule
        results.append({"name": entry.record.name, "outcome": v.outcome, "rule": v.rule,
                        "level": v.level, "expected_outcome": entry.expected_outcome,
                        "expected_rule": entry.expected_rule, "ok": ok})
    all_ok = all(r["ok"] for r in results)
    return EXIT_OK if all_ok else EXIT_ANALYSIS, {"results": results, "ok": all_ok}, _verify_text


def _verify_text(doc: dict) -> str:
    results = doc["results"]
    return _lines([*(f"{r['name']}: {r['outcome']} via {r['rule']}"
                     f" (expected {r['expected_outcome']}) {'OK' if r['ok'] else 'MISMATCH'}"
                     for r in results),
                   f"{'all' if doc['ok'] else 'NOT all'} {len(results)} corpus verdicts match"])


def _failure_text(failure, names) -> str:
    if isinstance(failure, tuple):
        return ", ".join(_failure_text(f, names) for f in failure)
    if hasattr(failure, "letters"):
        return format_word(failure, names)
    return str(failure)


def _probe_text(doc: dict) -> str:
    return _lines([f"probe: {doc['probe']}",
                   "config: " + " ".join(f"{k}={v}" for k, v in doc["config"].items()),
                   f"trials: {doc['trials']}",
                   f"status: {doc['status']}",
                   *(f"warning: {w}" for w in doc["warnings"]),
                   *(f"counterexample: {f}" for f in doc["failures"])])


def _fields_text(doc: dict) -> str:
    """One `key: value` line per field of doc that is not None."""
    return _lines(f"{key}: {value}" for key, value in doc.items() if value is not None)


def _search_text(doc: dict) -> str:
    return _fields_text({**doc, "config": f"bound={doc['config']['search_bound']}"})


# probes taking a word (--g) and probes taking a map (--map)
_WORD_PROBES = {"subgroup": orderprops.subgroup_probe,
                "normality": orderprops.normality_probe,
                "dominance": orderprops.dominant_check}
_MAP_PROBES = {"order-preservation": orderprops.order_preservation_probe,
               "invariance": orderprops.invariance_probe,
               "semidirect": orderprops.semidirect_order_probe}


def _cmd_probe(ns):
    _check_ranges(("--bound", ns.bound, 0, MAX_BOUND),
                  ("--samples", ns.samples, 1, MAX_SAMPLES),
                  ("--max-word-length", ns.max_word_length, 1, MAX_WORD_LENGTH))
    config = {"seed": ns.seed, "samples": ns.samples,
              "max_word_length": ns.max_word_length, "search_bound": ns.bound}
    cfg = ProbeConfig(**config)
    try:
        names = check_generator_names(ns.generators.split())
    except ValueError as exc:
        raise _Refusal(EXIT_USAGE, f"--generators: {exc}") from None
    record = None
    if ns.map:
        record = _load_record(ns.map)
        names = record.generator_names

    def word_arg(text, flag):
        if text is None:
            raise _Refusal(EXIT_USAGE, f"probe {ns.name} needs {flag}")
        try:
            return parse_word(text, names)
        except ValueError as exc:
            raise _Refusal(EXIT_USAGE, f"{flag}: {exc}") from None

    try:
        if ns.name in _WORD_PROBES:
            g = word_arg(ns.g, "--g")
            try:
                result = _WORD_PROBES[ns.name](g, cfg)
            except NotPositiveError as exc:  # name g as the user spelled it
                raise NotPositiveError(f"{exc}: {format_word(g, names)}") from None
            except PremiseUnmetError as exc:
                raise PremiseUnmetError(f"{exc} for {format_word(g, names)}",
                                        exc.premise_result) from None
        elif ns.name in _MAP_PROBES:
            if record is None:
                raise _Refusal(EXIT_USAGE, f"probe {ns.name} needs --map")
            require_automorphism(record)
            result = _MAP_PROBES[ns.name](record.phi, cfg)
        elif ns.name == "commutator":
            result = orderprops.commutator_infinitesimal_probe(len(names), cfg)
        else:  # weak-comparability
            f = word_arg(ns.f, "--f")
            g = word_arg(ns.g, "--g")
            search = orderprops.weak_comparability_search(f, g, cfg)
            witness = (format_word(search.witness, names)
                       if search.witness is not None else None)
            return EXIT_OK, {"probe": "weak-comparability", "config": config,
                             "status": search.status, "witness": witness,
                             "checked": search.checked}, _search_text
    except PremiseUnmetError as exc:
        return EXIT_OK, {"probe": ns.name, "status": "PREMISE_UNMET",
                         "detail": str(exc)}, _fields_text
    return EXIT_OK, {"probe": result.name, "config": config, "trials": result.trials,
                     "status": result.status,
                     "failures": [_failure_text(f, names) for f in result.failures],
                     "warnings": list(result.warnings)}, _probe_text


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    probe_defaults = ProbeConfig()
    parser = _Parser(prog="biorder",
                     description="Exact bi-orderability obstructions for Z x| F_n knot groups")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a presentation file or corpus:NAME")
    pa.add_argument("target", help="path to a .knot file or corpus:NAME")
    pa.add_argument("--max-level", type=int, default=1, choices=range(DEGREE_CAP))
    pa.add_argument("--max-degree", type=int, default=8,
                    help=f"cap on each level's char poly degree, 1..{MAX_DEGREE}")
    pa.set_defaults(func=_cmd_analyze)

    pc = sub.add_parser("corpus", help="list, show, or verify the bundled corpus")
    actions = pc.add_subparsers(dest="action", required=True)
    pl = actions.add_parser("list", help="the bundled knots' names")
    pl.set_defaults(func=_cmd_list)
    ps = actions.add_parser("show", help="a bundled knot's presentation file")
    ps.add_argument("name", help="knot name")
    ps.set_defaults(func=_cmd_show, format="text")  # the file is its one view
    pv = actions.add_parser("verify", help="check each bundled knot's expected verdict")
    pv.set_defaults(func=_cmd_verify)

    pp = sub.add_parser("probe", help="run a property probe in the Magnus bi-order")
    pp.add_argument("name", choices=(*_WORD_PROBES, "commutator", *_MAP_PROBES,
                                     "weak-comparability"))
    pp.add_argument("--g", help="word argument (e.g. `x` or `B X`)")
    pp.add_argument("--f", help="second word argument for weak-comparability")
    pp.add_argument("--map", help="presentation file or corpus:NAME supplying the map")
    pp.add_argument("--generators", default="x y",
                    help="generator names for plain word probes (default: `x y`)")
    pp.add_argument("--seed", type=int, default=probe_defaults.seed)
    pp.add_argument("--samples", type=int, default=probe_defaults.samples,
                    help=f"sampled trials, 1..{MAX_SAMPLES}")
    pp.add_argument("--max-word-length", type=int, default=probe_defaults.max_word_length,
                    help=f"longest sampled word, 1..{MAX_WORD_LENGTH}")
    pp.add_argument("--bound", type=int, default=probe_defaults.search_bound,
                    help=f"bound on |h|, 0..{MAX_BOUND}")
    pp.set_defaults(func=_cmd_probe)

    for p in (pa, pl, pv, pp):  # last, so each usage line ends its options with it
        p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv=None) -> int:
    """Run one command and write what it returns; the one writer of the CLI."""
    out = err = ""
    try:
        ns = build_parser().parse_args(argv)
        code, doc, to_text = ns.func(ns)
        if ns.format == "json":
            import json  # only `--format json` needs it
            out = json.dumps(doc, indent=2) + "\n"
        else:
            out = to_text(doc)
    except SystemExit as exc:  # argparse has written --help, or usage and error
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _Refusal as exc:
        code, err = exc.code, f"error: {exc}\n"
    except (ValueError, InconsistentPremisesError) as exc:
        code, err = EXIT_ANALYSIS, f"analysis error: {exc}\n"
    _write(sys.stdout, out)
    _write(sys.stderr, err)
    return code


if __name__ == "__main__":
    sys.exit(main())
