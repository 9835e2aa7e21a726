"""Acceptance gate: every criterion at its stated scale, exact arithmetic.

Each test prints one pass line; a failing assertion keeps the line unprinted.
All checks are exact equalities (the library has no floating point), so there
are no tolerances to pin.
"""

import json
import random

from biorder import cli
from biorder.corpus import corpus_entry
from biorder.exactalg import (Poly, char_poly, factor_over_Q, rational_roots,
                              sturm_count, all_roots_positive_real)
from biorder.freegroup import compose, multiply, random_word
from biorder.lcs import lcs_action
from biorder.magnus import compare, expand, series_mul
from biorder.orderprops import (ProbeConfig, commutator_infinitesimal_probe,
                                dominant_check, normality_probe,
                                subgroup_probe)
from biorder.verdict import analyze
from helpers import (W, cofactor_char_poly, count_positive_roots, count_real_roots,
                     divmod_q, random_automorphism, random_matrix, synthetic_division)


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_6_2_level0():
    record = corpus_entry("6_2").record
    cp = char_poly(lcs_action(record.phi, 1).matrix)
    assert cp == Poly([1, -3, 3, -3, 1])
    assert rational_roots(cp) == []
    assert sturm_count(cp, 0, None) == 2
    factors = factor_over_Q(cp).factors
    assert [(f.poly, f.multiplicity) for f in factors] == [(cp, 1)]
    _report(1, "6_2 level 0: quartic matches, no rational roots, "
               "2 positive real roots, irreducible over Q")


def test_criterion_2_6_2_level1():
    record = corpus_entry("6_2").record
    sextic = char_poly(lcs_action(record.phi, 2).matrix)
    assert sextic == Poly([1, -3, 8, -12, 8, -3, 1])
    # independent derivation of the quartic cofactor: two synthetic divisions
    step1, rem1 = synthetic_division(list(reversed(sextic.coeffs)), 1)
    step2, rem2 = synthetic_division(step1, 1)
    assert rem1 == 0 and rem2 == 0
    quartic = Poly(list(reversed(step2)))
    assert quartic == Poly([1, -1, 5, -1, 1])
    factors = factor_over_Q(sextic).factors
    assert [(f.poly, f.multiplicity) for f in factors] == [
        (Poly([-1, 1]), 2), (quartic, 1)]
    assert count_real_roots(quartic) == 0
    report = analyze(record, max_level=1)
    assert report.verdict.outcome == "NOT_BIORDERABLE"
    assert report.verdict.level == 1
    _report(2, "6_2 level 1: sextic matches, factors as (t-1)^2 times a "
               "real-root-free quartic, verdict NOT_BIORDERABLE at level 1")


def test_criterion_3_7_6_both_levels():
    record = corpus_entry("7_6").record
    cp0 = char_poly(lcs_action(record.phi, 1).matrix)
    assert cp0 == Poly([1, -5, 7, -5, 1])
    assert [(f.poly, f.multiplicity) for f in factor_over_Q(cp0).factors] == [(cp0, 1)]
    assert sturm_count(cp0, 0, None) == 2
    assert rational_roots(cp0) == []
    cp1 = char_poly(lcs_action(record.phi, 2).matrix)
    assert cp1(1) == 0
    assert cp1.derivative()(1) == 0
    quotient, rem = divmod_q(cp1, Poly([-1, 1]) ** 2)
    assert rem.is_zero
    assert count_real_roots(quotient) == 0
    report = analyze(record, max_level=1)
    assert report.verdict.outcome == "NOT_BIORDERABLE"
    _report(3, "7_6: level-0 quartic irreducible with 2 positive real roots; "
               "level-1 char poly has a double root at 1 and a real-root-free "
               "quotient; verdict NOT_BIORDERABLE")


def test_criterion_4_trefoil_and_figure8():
    trefoil = corpus_entry("trefoil").record
    cp_trefoil = char_poly(lcs_action(trefoil.phi, 1).matrix)
    assert cp_trefoil == Poly([1, -1, 1])
    assert count_real_roots(cp_trefoil) == 0
    verdict_trefoil = analyze(trefoil, max_level=1).verdict
    assert verdict_trefoil.outcome == "NOT_BIORDERABLE"
    assert verdict_trefoil.rule in ("R1", "R2")

    figure8 = corpus_entry("figure8").record
    cp_fig8 = char_poly(lcs_action(figure8.phi, 1).matrix)
    assert cp_fig8 == Poly([1, -3, 1])
    assert all_roots_positive_real(cp_fig8)
    verdict_fig8 = analyze(figure8, max_level=1).verdict
    assert verdict_fig8.outcome == "BIORDERABLE"
    assert verdict_fig8.rule == "R4"
    _report(4, "trefoil: t^2-t+1 rootless over R, NOT_BIORDERABLE via R1/R2; "
               "figure-8: t^2-3t+1 all roots positive real, BIORDERABLE via R4")


def test_criterion_5_homology_sanity():
    expected = {"6_2": -1, "7_6": -1, "trefoil": 1, "figure8": -1}
    for name, value in expected.items():
        record = corpus_entry(name).record
        assert char_poly(lcs_action(record.phi, 1).matrix)(1) == value
    _report(5, "char(M)(1) = -1, -1, 1, -1 for 6_2, 7_6, trefoil, figure-8")


def test_criterion_6_property_suites():
    # Magnus multiplicativity: 1000 pairs, truncations 2..4, zero failures
    rng = random.Random(71)
    for _ in range(1000):
        u = random_word(rng, 2, 8, allow_identity=True)
        v = random_word(rng, 2, 8, allow_identity=True)
        for d in (2, 3, 4):
            assert expand(multiply(u, v), d) == series_mul(expand(u, d), expand(v, d))

    # bi-invariance of the order: 1000 triples
    rng = random.Random(72)
    for _ in range(1000):
        u = random_word(rng, 2, 8, allow_identity=True)
        v = random_word(rng, 2, 8, allow_identity=True)
        h = random_word(rng, 2, 8, allow_identity=True)
        c = compare(u, v)
        assert compare(multiply(h, u), multiply(h, v)) == c
        assert compare(multiply(u, h), multiply(v, h)) == c

    # infinitesimal-subgroup probes at the stated scale
    cfg = ProbeConfig(seed=7, samples=1000, max_word_length=10)
    assert subgroup_probe(W("x"), cfg).passed
    assert normality_probe(W("x"), cfg).passed
    assert dominant_check(W("x"), cfg).passed
    assert commutator_infinitesimal_probe(2, cfg).passed

    # characteristic polynomial against the cofactor-expansion oracle
    rng = random.Random(73)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5))
        assert char_poly(m) == cofactor_char_poly(m)

    # Sturm counts against planted integer roots
    rng = random.Random(74)
    for _ in range(200):
        roots = rng.sample(range(-6, 7), rng.randint(1, 4))
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        if rng.random() < 0.5:
            p = p * Poly([1, 0, 1])
        assert count_real_roots(p) == len(roots)
        assert count_positive_roots(p) == sum(1 for r in roots if r > 0)

    # functoriality of the quotient actions: 50 composed pairs, k in {1, 2}
    rng = random.Random(75)
    for _ in range(50):
        phi = random_automorphism(rng, 3, steps=4)
        psi = random_automorphism(rng, 3, steps=4)
        for k in (1, 2):
            assert (lcs_action(compose(phi, psi), k).matrix
                    == lcs_action(phi, k).matrix @ lcs_action(psi, k).matrix)

    _report(6, "property suites: multiplicativity (1000), bi-invariance (1000), "
               "probes (1000), char-poly oracle (200), Sturm oracle (200), "
               "functoriality (50)")


def test_criterion_7_deterministic_output(capsys):
    assert cli.main(["corpus", "verify", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["corpus", "verify", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["ok"] is True
    _report(7, "two runs of `corpus verify --format json` are byte-identical")
