"""The three workloads: seeded input lists and the operations run on them.

An operation calls public functions of the program from outside, on inputs
that this module generates (see ``inputs``).  Each workload is a fixed list
of operations, one *round*; a run repeats whole rounds.  The program modules
are looked up at call time, so the traced run can wrap their attributes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from biorder import cli, corpus, freegroup, magnus, orderprops, presentation, verdict

import inputs

WORKLOADS = ("census-l1", "deep-l3", "magnus-probes")
# Reference-speed seconds of one full round, measured once; --seconds picks
# the number of rounds from these.
CENSUS_ROUND_S, DEEP_ROUND_S, PROBES_ROUND_S = 6.0, 23.0, 20.0

# census-l1: the CLI's default flags (`biorder analyze FILE --format json`).
CENSUS_LEVEL, CENSUS_DEGREE = 1, 8
CENSUS_SIZE = 1000
CENSUS_NAMES = ("xy", "xyz", "abcd")     # ranks 2, 3, 4 in turn
# deep-l3: the CLI's deepest level.  Random maps are drawn until their total
# image length lies in this band, because cost grows with image length and a
# run's median must not depend on how long the seed's words happen to be.
DEEP_LEVEL, DEEP_DEGREE = 3, 100
DEEP_RANDOM = 14
DEEP_MOVES = (3, 8)
DEEP_LENGTH = (8, 10)
# magnus-probes: default probe flags.
BATTERIES = 8
PROBE_SAMPLES, PROBE_WORD_LENGTH, PROBE_BOUND = 200, 10, 4
WEAK_WORD_LENGTH = (1, 4)
# Nested commutators [..[[a1, a2], a3].., ak] of lowest degree 4..8 in rank 3.
# The letter pattern is fixed and the seed permutes the generators: the
# expansion cost depends on the pattern (by a factor of two between random
# patterns) but not on the names, so every battery does the same work.  No
# letter repeats its predecessor, so no cancellation occurs and the degree-8
# word has exactly 382 letters.  Degree 9 is left out: lowest_term expands
# it to degree 16 and does not finish (see CHANGES.md).
COMMUTATOR_PATTERN = (0, 1, 2, 0, 1, 2, 0, 1)
COMMUTATOR_DEGREES = range(4, 9)
XY, XYZ = "xy", "xyz"


@dataclass
class Analysis:
    """One `analyze` input: presentation text plus what the checks need."""

    name: str
    text: str
    rank: int
    fibered: bool
    matrix: list[list[int]]           # exponent-sum matrix of the map
    max_level: int
    max_degree: int
    corpus_name: str | None = None


@dataclass
class Battery:
    """One probe battery: a probe seed, two short words and a commutator nest."""

    seed: int
    f: tuple
    g: tuple
    letters: tuple                  # a1..a8 of the nest, as generator numbers
    nest: dict[int, tuple]          # degree k -> [..[a1, a2].., ak]


@dataclass
class Workload:
    name: str
    items: list
    ops: list           # one callable per item; a round runs them in order
    summarize: object   # op result -> plain data compared across rounds
    round_s: float      # the round's time at reference speed, about

    def rounds(self, seconds: float) -> int:
        """Whole rounds that take about `seconds` at reference speed.

        The count depends on --seconds only, never on the speed of the
        moment, so every run of a workload does the same work: memory grows
        slightly with each round, and a count that followed the host's speed
        would show in peak_rss_mb.
        """
        return max(1, round(seconds / self.round_s))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def render(report) -> str:
    """`--format json` output of `biorder analyze`."""
    return json.dumps(cli.analysis_to_dict(report), indent=2) + "\n"


def analyze_op(item: Analysis):
    def op():
        record = presentation.parse_presentation(item.text).record()
        report = verdict.analyze(record, max_level=item.max_level,
                                 max_degree=item.max_degree)
        return render(report)
    return op


def _own(w) -> tuple:
    return tuple((g + 1) * s for g, s in w.letters)


def battery_op(b: Battery, figure8, trefoil):
    def op():
        cfg = orderprops.ProbeConfig(seed=b.seed, samples=PROBE_SAMPLES,
                                     max_word_length=PROBE_WORD_LENGTH,
                                     search_bound=PROBE_BOUND)
        x = freegroup.parse_word("x", XY)
        out = {
            "subgroup": orderprops.subgroup_probe(x, cfg),
            "normality": orderprops.normality_probe(x, cfg),
            "dominance": orderprops.dominant_check(x, cfg),
            "commutator": orderprops.commutator_infinitesimal_probe(2, cfg),
            "semidirect": orderprops.semidirect_order_probe(figure8, cfg),
            "order-preservation": orderprops.order_preservation_probe(trefoil, cfg),
        }
        try:
            out["invariance"] = orderprops.invariance_probe(figure8, cfg)
        except orderprops.PremiseUnmetError as exc:
            out["invariance"] = exc
        out["weak-comparability"] = orderprops.weak_comparability_search(
            freegroup.parse_word(inputs.word_text(b.f, XY), XY),
            freegroup.parse_word(inputs.word_text(b.g, XY), XY), cfg)
        nest = {k: freegroup.parse_word(inputs.word_text(w, XYZ), XYZ)
                for k, w in b.nest.items()}
        out["nest"] = [(k, magnus.lowest_term(nest[k]), magnus.in_gamma(nest[k], k),
                        magnus.in_gamma(nest[k - 1], k))
                       for k in COMMUTATOR_DEGREES]
        return out
    return op


def _plain(x):
    if hasattr(x, "letters"):
        return _own(x)
    if isinstance(x, tuple):
        return tuple(_plain(y) for y in x)
    return x


def _probe_summary(r) -> tuple:
    return (r.status, r.trials, _plain(r.failures), r.warnings)


def summarize_battery(out) -> dict:
    """Plain data from a battery's results (words as the benchmark's tuples)."""
    s = {name: _probe_summary(r) for name, r in out.items()
         if isinstance(r, orderprops.ProbeResult)}
    inv = out["invariance"]
    if isinstance(inv, orderprops.PremiseUnmetError):
        s["invariance"] = ("PREMISE_UNMET", _probe_summary(inv.premise_result))
    weak = out["weak-comparability"]
    s["weak-comparability"] = (weak.status, None if weak.witness is None
                               else _own(weak.witness), weak.checked)
    s["nest"] = [(k, lt.degree, tuple(lt.part), a, b) for k, lt, a, b in out["nest"]]
    return s


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _corpus_item(name: str, max_level: int, max_degree: int) -> Analysis:
    # read through the program's corpus loader, outside any timed region
    text = corpus.corpus_text(name)
    names, fibered, images = inputs.read_presentation(text)
    return Analysis(name, text, len(names), fibered,
                    inputs.exponent_matrix(images, len(names)), max_level,
                    max_degree, corpus_name=name)


def census_items(seed: int, size: int = CENSUS_SIZE) -> list[Analysis]:
    """The four corpus knots, then `size` random automorphisms of F_2..F_4.

    Ranks cycle 2, 3, 4 and every fourth map is marked not fibered, so the
    make-up of a round is the same for every seed; 3-10 Nielsen moves each.
    """
    rng = random.Random(f"census-l1/{seed}")
    items = [_corpus_item(n, CENSUS_LEVEL, CENSUS_DEGREE) for n in corpus.CORPUS_NAMES]
    for i in range(size):
        names = CENSUS_NAMES[i % len(CENSUS_NAMES)]
        rank = len(names)
        fibered = i % 4 != 3
        images, inverse = inputs.random_automorphism(rng, rank, rng.randint(3, 10))
        name = f"c{i}"
        items.append(Analysis(name, inputs.presentation_text(name, fibered, names, images, inverse),
                              rank, fibered, inputs.exponent_matrix(images, rank),
                              CENSUS_LEVEL, CENSUS_DEGREE))
    return items


def deep_items(seed: int, size: int = DEEP_RANDOM) -> list[Analysis]:
    """6_2, 7_6 and `size` random rank-4 automorphisms at level 3."""
    rng = random.Random(f"deep-l3/{seed}")
    items = [_corpus_item(n, DEEP_LEVEL, DEEP_DEGREE) for n in ("6_2", "7_6")]
    while len(items) < 2 + size:
        images, inverse = inputs.random_automorphism(rng, 4, rng.randint(*DEEP_MOVES))
        if not DEEP_LENGTH[0] <= sum(map(len, images)) <= DEEP_LENGTH[1]:
            continue
        name = f"d{len(items) - 2}"
        items.append(Analysis(name, inputs.presentation_text(name, True, "abcd", images, inverse),
                              4, True, inputs.exponent_matrix(images, 4),
                              DEEP_LEVEL, DEEP_DEGREE))
    return items


def batteries(seed: int, size: int = BATTERIES) -> list[Battery]:
    rng = random.Random(f"magnus-probes/{seed}")
    out = []
    for _ in range(size):
        probe_seed = rng.randrange(1 << 31)
        f = inputs.random_reduced_word(rng, 2, rng.randint(*WEAK_WORD_LENGTH))
        g = inputs.random_reduced_word(rng, 2, rng.randint(*WEAK_WORD_LENGTH))
        perm = rng.sample(range(3), 3)
        letters = tuple(perm[p] + 1 for p in COMMUTATOR_PATTERN)
        nest = {1: letters[:1]}
        for k in range(2, max(COMMUTATOR_DEGREES) + 1):
            nest[k] = inputs.commutator_word(nest[k - 1], letters[k - 1:k])
        out.append(Battery(probe_seed, f, g, letters, nest))
    return out


def _free_map(name: str):
    return presentation.parse_presentation(corpus.corpus_text(name)).free_map()


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload's round for this seed; `quick` keeps a few operations."""
    if name == "census-l1":
        items = census_items(seed, 12 if quick else CENSUS_SIZE)
        return Workload(name, items, [analyze_op(i) for i in items], str, CENSUS_ROUND_S)
    if name == "deep-l3":
        items = deep_items(seed, 1 if quick else DEEP_RANDOM)
        if quick:
            items = items[1:]
        return Workload(name, items, [analyze_op(i) for i in items], str, DEEP_ROUND_S)
    if name == "magnus-probes":
        items = batteries(seed, 1 if quick else BATTERIES)
        fig, tre = _free_map("figure8"), _free_map("trefoil")
        return Workload(name, items, [battery_op(b, fig, tre) for b in items],
                        summarize_battery, PROBES_ROUND_S)
    raise ValueError(f"unknown workload {name!r}")
