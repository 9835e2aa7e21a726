"""Randomized probes instantiating infinitesimal-subgroup theory in the
concrete Magnus bi-order.

Every probe is an evidence generator, not a proof: PASS means no sampled
counterexample, COUNTEREXAMPLE carries concrete witnesses, and premises that
fail stop a probe with PremiseUnmetError rather than letting it overstate.
The concrete order quantifies over one bi-order (graded-lex Magnus), so a
PASS instantiates a theorem's claim in that order only.

All sampling is deterministic given the config seed.  A probe run keeps one
generator and reseeds it before each trial with the trial's own sub-seed,
derived from the seed and the trial's index (_trial_seed), so each trial
draws the stream a fresh generator seeded with that sub-seed would.  That
one loop, _trial_results, yields each trial's failures; _run_trials
collects them into a ProbeResult, and a premise read only as passed or not
stops at its first failing trial.

A trial forms only the words its verdict reads: the order-preservation
trial reads the sign of phi(w) off the exponent sums M e(w) unless they
all vanish, and the semidirect trial forms a product's word only when the
integers of the two products it compares tie.
"""

from __future__ import annotations

import random

from ._record import Record
from .freegroup import (FreeMap, Word, _check_rank, commutator, conjugate,
                        identity, invert, iterate_map, letter, multiply,
                        random_word, substitution)
from .magnus import GT, LT, archimedean_key, compare, sign

_DRAWS = 500  # random words drawn for one infinitesimal sample before giving up
_SAMPLES = 200  # default sample count of a probe


class NotPositiveError(ValueError):
    """The probe needs a positive element g."""


class PremiseUnmetError(ValueError):
    """A premise probe failed; the dependent probe refuses to overstate."""

    def __init__(self, message: str, premise_result: "ProbeResult | None" = None):
        super().__init__(message)
        self.premise_result = premise_result


class ProbeConfig(Record):
    seed: int
    samples: int
    max_word_length: int
    search_bound: int

    def __init__(self, seed: int = 0, samples: int = _SAMPLES, max_word_length: int = 10,
                 search_bound: int = 4):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        super().__init__(seed, samples, max_word_length, search_bound)


# Random words one rejection-sampled probe may draw in all.  It is what the
# default sample count of two infinitesimals each can draw at most, so a probe
# at that count never reaches it; above it, a g whose infinitesimals are rare
# stops the probe here instead of running for minutes.
_DRAW_BUDGET = 2 * _SAMPLES * _DRAWS


class ProbeResult(Record):
    name: str
    trials: int
    failures: tuple
    warnings: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "COUNTEREXAMPLE" if self.failures else "PASS"

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_seed(cfg: ProbeConfig, index: int) -> int:
    """Splitmix-style sub-seed, so each trial is independently reproducible."""
    return (cfg.seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) % (1 << 63)


class _Drawn:
    """Random words a rejection-sampled probe has drawn so far."""

    __slots__ = ("count",)
    count: int

    def __init__(self, count: int = 0):
        self.count = count


def _trial_results(cfg: ProbeConfig, trial, drawn: _Drawn | None = None):
    """Yield trial(rng) once per sample, rng reseeded with the sample's sub-seed.

    trial returns None to skip the sample, else the list of failures it found.
    For a rejection-sampled probe, drawn is the tally its trials draw into,
    and no sample starts once it reaches _DRAW_BUDGET.  A caller that reads
    only whether some trial failed stops at the first failing one.
    """
    rng = random.Random()
    for index in range(cfg.samples):
        if drawn is not None and drawn.count >= _DRAW_BUDGET:
            return
        rng.seed(_trial_seed(cfg, index))  # the stream of Random(sub-seed)
        yield trial(rng)


def _run_trials(name: str, cfg: ProbeConfig, trial, warnings=(),
                drawn: _Drawn | None = None) -> ProbeResult:
    """The ProbeResult of every sample _trial_results runs.

    A rejection-sampled probe skips a sample only when _sample_infinitesimal
    gives up, and then warns that it ran fewer trials than samples; stopped
    at _DRAW_BUDGET, it warns with the draws spent.  Any probe warns when no
    sample produced a trial, since its PASS then tested nothing.
    """
    results = list(_trial_results(cfg, trial, drawn))
    tried, ran = len(results), [found for found in results if found is not None]
    if drawn is not None and len(ran) < tried:
        warnings = (*warnings, f"only {len(ran)} of {tried} samples found "
                    f"an infinitesimal within {_DRAWS} draws")
    if tried < cfg.samples:
        warnings = (*warnings, f"stopped after {tried} of {cfg.samples} samples: "
                    f"{drawn.count} draws spent the budget of {_DRAW_BUDGET}")
    if not ran:
        warnings = (*warnings, "no sample produced a trial, so nothing was tested")
    return ProbeResult(name, len(ran), tuple(f for found in ran for f in found), warnings)


def _positive_key(g: Word):
    """archimedean_key(g), for a g that must be positive."""
    if sign(g) != 1:
        raise NotPositiveError("element must be positive in the Magnus order")
    return archimedean_key(g)


def _sample_infinitesimal(rng, rank: int, key_g, max_len: int,
                          drawn: _Drawn) -> Word | None:
    """A random word w with archimedean_key(w) > key_g (so w is infinitesimal
    w.r.t. the element keyed key_g), or None after _DRAWS draws; each draw is
    counted in drawn."""
    for _ in range(_DRAWS):
        drawn.count += 1
        w = random_word(rng, rank, max_len)
        if archimedean_key(w) > key_g:
            return w
    return None


# ---------------------------------------------------------------------------
# subgroup / normality / dominance
# ---------------------------------------------------------------------------

def subgroup_probe(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Products of elements infinitesimal w.r.t. g stay infinitesimal.

    Only products are sampled: inverses need no trial, since |f^-1| = |f| in
    every ordered group and archimedean_key reads one key for f and f^-1.
    Samples are rejection-drawn; trials counts the pairs actually found, which
    can fall below cfg.samples when infinitesimals w.r.t. g are rare, and a
    warning then says so.
    """
    key_g = _positive_key(g)
    drawn = _Drawn()

    def trial(rng):
        f1 = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length, drawn)
        f2 = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length, drawn)
        if f1 is None or f2 is None:
            return None
        prod = multiply(f1, f2)
        return [(f1, f2, prod)] if not prod.is_identity and archimedean_key(prod) <= key_g else []

    return _run_trials("subgroup", cfg, trial, drawn=drawn)


def dominant_check(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Evidence that g is infinitesimal with respect to no other element.

    Generators and their inverses are tried first (they witness the common
    failures deterministically), then random words.  PASS is evidence only.
    """
    key_g = _positive_key(g)

    def check(h):
        return [h] if key_g > archimedean_key(h) else []

    def trial(rng):
        h = random_word(rng, g.rank, cfg.max_word_length)
        return None if h == g else check(h)

    generators = [h for j in range(g.rank) for s in (1, -1)
                  if (h := letter(g.rank, j, s)) != g]
    sampled = _run_trials("dominance", cfg, trial)
    return ProbeResult("dominance", len(generators) + sampled.trials,
                       tuple(f for h in generators for f in check(h)) + sampled.failures)


def normality_probe(g: Word, cfg: ProbeConfig) -> ProbeResult:
    """Conjugates of elements infinitesimal w.r.t. a dominant g stay infinitesimal."""
    dom = dominant_check(g, cfg)
    if not dom.passed:
        raise PremiseUnmetError("dominance premise failed", premise_result=dom)
    key_g = archimedean_key(g)
    drawn = _Drawn()

    def trial(rng):
        x = _sample_infinitesimal(rng, g.rank, key_g, cfg.max_word_length, drawn)
        if x is None:
            return None
        u = random_word(rng, g.rank, cfg.max_word_length, allow_identity=True)
        conj = conjugate(x, u)
        return [(x, u, conj)] if archimedean_key(conj) <= key_g else []

    return _run_trials("normality", cfg, trial, drawn=drawn)


def commutator_infinitesimal_probe(rank: int, cfg: ProbeConfig) -> ProbeResult:
    """Sampled commutators [u, v] are infinitesimal w.r.t. the dominant generator."""
    key_g = archimedean_key(letter(rank, 0))

    def trial(rng):
        u = random_word(rng, rank, cfg.max_word_length)
        v = random_word(rng, rank, cfg.max_word_length)
        c = commutator(u, v)
        if c.is_identity:
            return None
        return [(u, v, c)] if archimedean_key(c) <= key_g else []

    return _run_trials("commutator-infinitesimal", cfg, trial)


# ---------------------------------------------------------------------------
# order preservation and invariance of the infinitesimal subgroup
# ---------------------------------------------------------------------------

def _preservation_trial(phi: FreeMap, cfg: ProbeConfig):
    """The order-preservation trial: a sampled w, made positive, fails when
    phi(w) is not positive.

    The exponent sums of phi(w) are M e(w), where column j of M holds the
    sums of phi(x_j), so the first nonzero entry of M e(w) has the sign of
    phi(w), as for any word with a nonzero sum; phi is applied only when
    M e(w) is all zero.
    """
    image = substitution(phi)
    # not lcs.abelianized: importing lcs would load the algebra layer into the probes
    rows = tuple(zip(*(x.exponent_vector() for x in phi.images)))  # M, row by row

    def trial(rng):
        w = random_word(rng, phi.rank, cfg.max_word_length)
        if sign(w) == -1:
            w = invert(w)
        e = w.exponent_vector()
        for row in rows:
            if total := sum(m * k for m, k in zip(row, e)):
                return [] if total > 0 else [w]
        return [w] if sign(image(w)) != 1 else []

    return trial


def order_preservation_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """Positive sampled elements must have positive images.

    A sampled w whose images' exponent sums M e(w) are not all zero is
    judged by them; phi is applied only to the others (_preservation_trial).
    """
    return _run_trials("order-preservation", cfg, _preservation_trial(phi, cfg))


def invariance_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """An order-preserving map sends infinitesimals to infinitesimals."""
    premise = order_preservation_probe(phi, cfg)
    if not premise.passed:
        raise PremiseUnmetError("order preservation premise failed",
                                premise_result=premise)
    key_g = archimedean_key(letter(phi.rank, 0))
    drawn = _Drawn()
    image = substitution(phi)

    def trial(rng):
        f = _sample_infinitesimal(rng, phi.rank, key_g, cfg.max_word_length, drawn)
        if f is None:
            return None
        img = image(f)
        return [(f, img)] if not img.is_identity and archimedean_key(img) <= key_g else []

    return _run_trials("invariance", cfg, trial, drawn=drawn)


# ---------------------------------------------------------------------------
# semidirect products Z x| F_n
# ---------------------------------------------------------------------------

Pair = tuple[int, Word]
_MAX_SHIFT = 3  # the semidirect probe samples stable-letter exponents in -3..3


def semidirect_compare(p1: Pair, p2: Pair) -> int:
    """Lexicographic order on Z x| F_n: integers first, then the word order."""
    m, w = p1
    n, v = p2
    if m != n:
        return LT if m < n else GT
    return compare(w, v)


def semidirect_order_probe(phi: FreeMap, cfg: ProbeConfig) -> ProbeResult:
    """Antisymmetry, transitivity, and bi-invariance of the semidirect order.

    The order-preservation premise is recorded as a warning when it fails;
    comparisons are still exercised.  Only whether the premise passed is
    read, so its trials stop at the first failing one.  phi^n, and its
    substitution, is built once for every sampled exponent n, so phi needs
    inverse images.  With (m, w) (n, v) = (m + n, phi^n(w) v), q p1 and q p2,
    and p1 q and p2 q, have integers that differ as those of p1 and p2 do,
    so their words are formed only when p1 and p2 tie on the integer.
    """
    premise_failed = any(_trial_results(cfg, _preservation_trial(phi, cfg)))
    warnings = ("order-preservation premise failed; the semidirect order "
                "need not be bi-invariant",) if premise_failed else ()
    powers = {n: substitution(iterate_map(phi, n))
              for n in range(-_MAX_SHIFT, _MAX_SHIFT + 1)}

    def trial(rng):
        def sample_pair():
            return (rng.randint(-_MAX_SHIFT, _MAX_SHIFT),
                    random_word(rng, phi.rank, cfg.max_word_length, allow_identity=True))
        p1, p2, p3 = sample_pair(), sample_pair(), sample_pair()
        failures = []
        c12 = semidirect_compare(p1, p2)
        if semidirect_compare(p2, p1) != -c12:
            failures.append(("antisymmetry", p1, p2))
        if (c12 != GT
                and semidirect_compare(p2, p3) != GT
                and semidirect_compare(p1, p3) == GT):
            failures.append(("transitivity", p1, p2, p3))
        q = sample_pair()
        (m, w), (n1, v1), (n2, v2) = q, p1, p2
        if n1 != n2:  # m + n1 and m + n2 decide both comparisons, as for c12
            left = right = LT if n1 < n2 else GT
        else:  # q p_i = (m + n, phi^n(w) v_i) and p_i q = (n + m, phi^m(v_i) w)
            shifted, after = powers[n1](w), powers[m]
            left = compare(multiply(shifted, v1), multiply(shifted, v2))
            right = compare(multiply(after(v1), w), multiply(after(v2), w))
        if left != c12:
            failures.append(("left-invariance", q, p1, p2))
        if right != c12:
            failures.append(("right-invariance", q, p1, p2))
        return failures

    return _run_trials("semidirect", cfg, trial, warnings)


# ---------------------------------------------------------------------------
# weak comparability
# ---------------------------------------------------------------------------

NOT_FOUND_WITHIN_BOUND = "NOT_FOUND_WITHIN_BOUND"
WITNESS_FOUND = "WITNESS_FOUND"


class WeakComparabilityResult(Record):
    status: str
    witness: Word | None
    checked: int


def weak_comparability_search(f: Word, g: Word, cfg: ProbeConfig) -> WeakComparabilityResult:
    """First h with |h| <= bound making f and h g h^-1 mutually non-infinitesimal.

    Neither of two nontrivial words is infinitesimal w.r.t. the other iff
    their archimedean keys are equal.  Conjugation keeps the lowest homogeneous
    part (M(h) L M(h)^-1 = L + higher terms), so h = e, the first word in
    shortlex order, is a witness or no word is; checked counts as a scan of
    every reduced word of length <= bound would.  Absence within the bound is
    never reported as nonexistence.
    """
    _check_rank(f, g)
    if f.is_identity or g.is_identity:
        raise ValueError("weak comparability search needs nontrivial f and g")
    if archimedean_key(f) == archimedean_key(g):
        return WeakComparabilityResult(WITNESS_FOUND, identity(f.rank), 1)
    n = f.rank  # 2n (2n - 1)^(l - 1) reduced words of each length l >= 1
    checked = 1 + sum(2 * n * (2 * n - 1) ** (length - 1)
                      for length in range(1, cfg.search_bound + 1))
    return WeakComparabilityResult(NOT_FOUND_WITHIN_BOUND, None, checked)
