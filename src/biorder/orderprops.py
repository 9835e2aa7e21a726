"""Randomized probes instantiating infinitesimal-subgroup theory in the
concrete Magnus bi-order.

Every probe is an evidence generator, not a proof: PASS means no sampled
counterexample, COUNTEREXAMPLE carries concrete witnesses, and premises that
fail stop a probe with PremiseUnmetError rather than letting it overstate.
The concrete order quantifies over one bi-order (graded-lex Magnus), so a
PASS instantiates a theorem's claim in that order only.

All sampling is deterministic given the config seed; trials use derived
sub-seeds so serial and parallel runs would emit identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .freegroup import (FreeMap, Word, apply_map, commutator, conjugate,
                        identity, invert, iterate_map, letter, multiply,
                        random_word)
from .magnus import GT, LT, archimedean_key, compare, sign


class NotPositiveError(ValueError):
    """The probe needs a positive element g."""


class PremiseUnmetError(ValueError):
    """A premise probe failed; the dependent probe refuses to overstate."""

    def __init__(self, message: str, premise_result: "ProbeResult | None" = None):
        super().__init__(message)
        self.premise_result = premise_result


@dataclass(frozen=True)
class ProbeConfig:
    seed: int = 0
    samples: int = 200
    max_word_length: int = 10
    search_bound: int = 4

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")


@dataclass(frozen=True)
class ProbeResult:
    name: str
    trials: int
    failures: tuple
    status: str  # PASS or COUNTEREXAMPLE
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _result(name: str, trials: int, failures, warnings=()) -> ProbeResult:
    failures = tuple(failures)
    status = "PASS" if not failures else "COUNTEREXAMPLE"
    return ProbeResult(name, trials, failures, status, tuple(warnings))


def _trial_rng(cfg: ProbeConfig, index: int) -> random.Random:
    # splitmix-style sub-seed so each trial is independently reproducible
    z = (cfg.seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) % (1 << 63)
    return random.Random(z)


def _positive_key(g: Word):
    """archimedean_key(g), for a g that must be positive."""
    if sign(g) != 1:
        raise NotPositiveError(f"element must be positive in the Magnus order: {g!r}")
    return archimedean_key(g)


def _sample_infinitesimal(rng, rank: int, key_g, max_len: int) -> Word | None:
    """A random word w with archimedean_key(w) > key_g (so w is infinitesimal
    w.r.t. the element keyed key_g), or None after 500 draws."""
    for _ in range(500):
        w = random_word(rng, rank, max_len)
        if archimedean_key(w) > key_g:
            return w
    return None


# ---------------------------------------------------------------------------
# subgroup / normality / dominance
# ---------------------------------------------------------------------------

def subgroup_probe(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Products and inverses of elements infinitesimal w.r.t. g stay infinitesimal.

    Samples are rejection-drawn; trials counts the pairs actually found, which
    can fall below cfg.samples when infinitesimals w.r.t. g are rare.
    """
    key_g = _positive_key(g)
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        f1 = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length)
        f2 = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length)
        if f1 is None or f2 is None:
            continue
        trials += 1
        prod = multiply(f1, f2)
        if not prod.is_identity and archimedean_key(prod) <= key_g:
            failures.append((f1, f2, prod))
        if archimedean_key(invert(f1)) <= key_g:
            failures.append((f1, invert(f1)))
    return _result("subgroup", trials, failures)


def dominant_check(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Evidence that g is infinitesimal with respect to no other element.

    Generators and their inverses are tried first (they witness the common
    failures deterministically), then random words.  PASS is evidence only.
    """
    key_g = _positive_key(g)
    failures = []
    trials = 0
    candidates = [letter(g.rank, j, s) for j in range(g.rank) for s in (1, -1)]
    for h in candidates:
        if h == g:
            continue
        trials += 1
        if key_g > archimedean_key(h):
            failures.append(h)
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        h = random_word(rng, g.rank, cfg.max_word_length)
        if h.is_identity or h == g:
            continue
        trials += 1
        if key_g > archimedean_key(h):
            failures.append(h)
    return _result("dominance", trials, failures)


def normality_probe(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Conjugates of elements infinitesimal w.r.t. a dominant g stay infinitesimal."""
    dom = dominant_check(g, cfg)
    if not dom.passed:
        raise PremiseUnmetError(
            f"dominance premise failed for {g!r}", premise_result=dom)
    key_g = archimedean_key(g)
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        x = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length)
        if x is None:
            continue
        u = random_word(rng, g.rank, cfg.max_word_length, allow_identity=True)
        trials += 1
        conj = conjugate(x, u)
        if not conj.is_identity and archimedean_key(conj) <= key_g:
            failures.append((x, u, conj))
    return _result("normality", trials, failures)


def commutator_infinitesimal_probe(rank: int, cfg: ProbeConfig) -> ProbeResult:
    """Sampled commutators [u, v] are infinitesimal w.r.t. the dominant generator."""
    key_g = archimedean_key(letter(rank, 0))
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        u = random_word(rng, rank, cfg.max_word_length)
        v = random_word(rng, rank, cfg.max_word_length)
        c = commutator(u, v)
        if c.is_identity:
            continue
        trials += 1
        if archimedean_key(c) <= key_g:
            failures.append((u, v, c))
    return _result("commutator-infinitesimal", trials, failures)


# ---------------------------------------------------------------------------
# order preservation and invariance of the infinitesimal subgroup
# ---------------------------------------------------------------------------

def order_preservation_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """Positive sampled elements must have positive images."""
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        w = random_word(rng, phi.rank, cfg.max_word_length)
        if sign(w) == -1:
            w = invert(w)
        trials += 1
        if sign(apply_map(phi, w)) != 1:
            failures.append(w)
    return _result("order-preservation", trials, failures)


def invariance_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """An order-preserving map sends infinitesimals to infinitesimals."""
    premise = order_preservation_probe(phi, cfg)
    if not premise.passed:
        raise PremiseUnmetError("order preservation premise failed",
                                premise_result=premise)
    key_g = archimedean_key(letter(phi.rank, 0))
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        f = _sample_infinitesimal(rng, phi.rank, key_g, cfg.max_word_length)
        if f is None:
            continue
        trials += 1
        img = apply_map(phi, f)
        if not img.is_identity and archimedean_key(img) <= key_g:
            failures.append((f, img))
    return _result("invariance", trials, failures)


# ---------------------------------------------------------------------------
# semidirect products Z x| F_n
# ---------------------------------------------------------------------------

Pair = tuple[int, Word]


def semidirect_mul(p1: Pair, p2: Pair, phi: FreeMap) -> Pair:
    """(m, w) * (n, v) = (m + n, phi^n(w) v); negative n needs an invertible phi."""
    m, w = p1
    n, v = p2
    return (m + n, multiply(apply_map(iterate_map(phi, n), w), v))


def semidirect_compare(p1: Pair, p2: Pair, phi: FreeMap) -> int:
    """Lexicographic order on Z x| F_n: integers first, then the word order."""
    m, w = p1
    n, v = p2
    if m != n:
        return LT if m < n else GT
    return compare(w, v)


def semidirect_order_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """Antisymmetry, transitivity, and bi-invariance of the semidirect order.

    The order-preservation premise is recorded as a warning when it fails;
    comparisons are still exercised.
    """
    premise = order_preservation_probe(phi, cfg)
    warnings = ()
    if not premise.passed:
        warnings = ("order-preservation premise failed; the semidirect order "
                    "need not be bi-invariant",)
    failures = []
    trials = 0
    for i in range(cfg.samples):
        rng = _trial_rng(cfg, i)
        def sample_pair():
            return (rng.randint(-3, 3),
                    random_word(rng, phi.rank, cfg.max_word_length, allow_identity=True))
        p1, p2, p3 = sample_pair(), sample_pair(), sample_pair()
        trials += 1
        c12 = semidirect_compare(p1, p2, phi)
        if semidirect_compare(p2, p1, phi) != -c12:
            failures.append(("antisymmetry", p1, p2))
        if (c12 != GT
                and semidirect_compare(p2, p3, phi) != GT
                and semidirect_compare(p1, p3, phi) == GT):
            failures.append(("transitivity", p1, p2, p3))
        q = sample_pair()
        if semidirect_compare(semidirect_mul(q, p1, phi),
                              semidirect_mul(q, p2, phi), phi) != c12:
            failures.append(("left-invariance", q, p1, p2))
        if semidirect_compare(semidirect_mul(p1, q, phi),
                              semidirect_mul(p2, q, phi), phi) != c12:
            failures.append(("right-invariance", q, p1, p2))
    return _result("semidirect", trials, failures, warnings)


# ---------------------------------------------------------------------------
# weak comparability
# ---------------------------------------------------------------------------

NOT_FOUND_WITHIN_BOUND = "NOT_FOUND_WITHIN_BOUND"
WITNESS_FOUND = "WITNESS_FOUND"


@dataclass(frozen=True)
class WeakComparabilityResult:
    status: str
    witness: Word | None
    bound: int
    checked: int


def enumerate_words(rank: int, max_length: int):
    """All reduced words of length <= max_length in shortlex order.

    Letter order: generator index ascending, positive before negative.
    """
    alphabet = [(g, s) for g in range(rank) for s in (1, -1)]
    yield identity(rank)
    frontier = [()]
    for _ in range(max_length):
        nxt = []
        for prefix in frontier:
            for gl in alphabet:
                if prefix and prefix[-1][0] == gl[0] and prefix[-1][1] == -gl[1]:
                    continue
                word = prefix + (gl,)
                nxt.append(word)
                yield Word(rank, word)
        frontier = nxt


def weak_comparability_search(f: Word, g: Word, cfg: ProbeConfig) -> WeakComparabilityResult:
    """First h with |h| <= bound making f and h g h^-1 mutually non-infinitesimal.

    Neither of two nontrivial words is infinitesimal w.r.t. the other iff
    their archimedean keys are equal; a conjugate of g is never trivial.
    Absence of a witness within the bound is reported as such, never as
    nonexistence.
    """
    if f.is_identity or g.is_identity:
        raise ValueError("weak comparability search needs nontrivial f and g")
    key_f = archimedean_key(f)
    checked = 0
    for h in enumerate_words(f.rank, cfg.search_bound):
        checked += 1
        if archimedean_key(conjugate(g, h)) == key_f:
            return WeakComparabilityResult(WITNESS_FOUND, h, cfg.search_bound, checked)
    return WeakComparabilityResult(NOT_FOUND_WITHIN_BOUND, None, cfg.search_bound, checked)
