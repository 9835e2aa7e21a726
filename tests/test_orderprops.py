import random

import pytest

from biorder.freegroup import (FreeMap, apply_map, commutator, conjugate,
                               identity, invert, multiply, random_word)
from biorder.magnus import EQ, GT, is_infinitesimal, sign
from biorder.orderprops import (NOT_FOUND_WITHIN_BOUND, WITNESS_FOUND,
                                NotPositiveError, PremiseUnmetError,
                                ProbeConfig, commutator_infinitesimal_probe,
                                dominant_check, enumerate_words,
                                invariance_probe, normality_probe,
                                order_preservation_probe, semidirect_compare,
                                semidirect_mul, semidirect_order_probe,
                                subgroup_probe, weak_comparability_search)
from helpers import W

CFG = ProbeConfig(seed=7, samples=300, max_word_length=10)
SMALL = ProbeConfig(seed=7, samples=60, max_word_length=8)


def identity_map2():
    return FreeMap(2, (W("x"), W("y")), (W("x"), W("y")))


def swap_map():
    return FreeMap(2, (W("y"), W("x")), (W("y"), W("x")))


def conjugation_by_x():
    return FreeMap(2, (W("x"), W("x y X")), (W("x"), W("X y x")))


class TestSubgroupProbe:
    def test_passes_for_dominant_generator(self):
        result = subgroup_probe(W("x"), CFG)
        assert result.passed and result.trials > 0

    def test_requires_positive_element(self):
        with pytest.raises(NotPositiveError):
            subgroup_probe(W("X"), CFG)

    def test_gamma3_words_below_a_commutator(self):
        # elements built inside gamma_3 are infinitesimal w.r.t. [x,y], and
        # their products and inverses stay there
        g = commutator(W("x"), W("y"))
        rng = random.Random(61)
        for _ in range(100):
            u = random_word(rng, 2, 4)
            v = random_word(rng, 2, 4)
            w = random_word(rng, 2, 4)
            f1 = commutator(commutator(u, v), w)
            f2 = commutator(commutator(v, w), u)
            if f1.is_identity or f2.is_identity:
                continue
            assert is_infinitesimal(f1, g)
            prod = multiply(f1, f2)
            if not prod.is_identity:
                assert is_infinitesimal(prod, g)
            assert is_infinitesimal(invert(f1), g)


class TestDominance:
    def test_first_generator_is_dominant_evidence(self):
        assert dominant_check(W("x"), CFG).passed

    def test_second_generator_fails_with_first_as_witness(self):
        result = dominant_check(W("y"), CFG)
        assert result.status == "COUNTEREXAMPLE"
        assert result.failures[0] == W("x")

    def test_commutator_fails_with_generator_witness(self):
        result = dominant_check(commutator(W("x"), W("y")), CFG)
        assert result.status == "COUNTEREXAMPLE"
        assert result.failures[0] == W("x")

    def test_counterexamples_reverify(self):
        result = dominant_check(W("y"), CFG)
        for h in result.failures:
            assert is_infinitesimal(W("y"), h)


class TestNormality:
    def test_passes_for_dominant_generator(self):
        result = normality_probe(W("x"), CFG)
        assert result.passed and result.trials > 0

    def test_premise_unmet_for_non_dominant(self):
        with pytest.raises(PremiseUnmetError) as exc:
            normality_probe(W("y"), CFG)
        assert exc.value.premise_result.failures[0] == W("x")

    def test_powers_of_dominant_conjugator(self):
        g = W("x")
        x = commutator(W("x"), W("y"))
        for n in range(1, 11):
            u = W(" ".join(["x"] * n))
            assert is_infinitesimal(multiply(multiply(u, x), invert(u)), g)


class TestCommutatorProbe:
    def test_commutators_are_infinitesimal(self):
        result = commutator_infinitesimal_probe(2, CFG)
        assert result.passed and result.trials > 0

    def test_rank3(self):
        assert commutator_infinitesimal_probe(3, SMALL).passed


class TestOrderPreservation:
    def test_identity_passes(self):
        assert order_preservation_probe(identity_map2(), CFG).passed

    def test_swap_fails_and_failures_reverify(self):
        result = order_preservation_probe(swap_map(), CFG)
        assert result.status == "COUNTEREXAMPLE"
        for w in result.failures:
            assert sign(w) == 1
            assert sign(apply_map(swap_map(), w)) != 1

    def test_inner_automorphism_passes(self):
        # conjugation preserves positivity in any bi-order
        assert order_preservation_probe(conjugation_by_x(), CFG).passed

    def test_generator_squaring_runs_and_reports(self):
        phi = FreeMap(2, (W("x x"), W("y")))
        first = order_preservation_probe(phi, SMALL)
        second = order_preservation_probe(phi, SMALL)
        assert first == second
        assert first.status in ("PASS", "COUNTEREXAMPLE")


class TestInvariance:
    def test_identity_passes(self):
        assert invariance_probe(identity_map2(), SMALL).passed

    def test_swap_premise_unmet(self):
        with pytest.raises(PremiseUnmetError):
            invariance_probe(swap_map(), SMALL)

    def test_inner_automorphism_passes(self):
        assert invariance_probe(conjugation_by_x(), SMALL).passed

    def test_shear_runs_deterministically(self):
        phi = FreeMap(2, (W("x"), W("x y")), (W("x"), W("X y")))
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(invariance_probe(phi, SMALL))
            except PremiseUnmetError as exc:
                outcomes.append(("premise-unmet", exc.premise_result))
        assert outcomes[0] == outcomes[1]


class TestSemidirect:
    def test_integer_part_dominates(self):
        phi = conjugation_by_x()
        assert semidirect_compare((1, identity(2)), (0, W("y Y x")), phi) == GT

    def test_word_part_breaks_ties(self):
        assert semidirect_compare((0, W("x")), (0, W("y")), conjugation_by_x()) == GT

    def test_equal_pairs(self):
        assert semidirect_compare((0, identity(2)), (0, identity(2)),
                                  conjugation_by_x()) == EQ

    def test_multiplication_convention(self):
        # (m, w) * (n, v) = (m + n, phi^n(w) v)
        phi = conjugation_by_x()
        m, w = 1, W("y")
        n, v = 2, W("x")
        expected_word = multiply(apply_map(phi, apply_map(phi, w)), v)
        assert semidirect_mul((m, w), (n, v), phi) == (3, expected_word)

    def test_probe_passes_for_inner_automorphism(self):
        result = semidirect_order_probe(conjugation_by_x(), SMALL)
        assert result.passed
        assert result.warnings == ()

    def test_probe_records_premise_warning_for_swap(self):
        result = semidirect_order_probe(swap_map(), SMALL)
        assert result.warnings != ()


class TestWeakComparability:
    def test_element_comparable_to_itself(self):
        found = weak_comparability_search(W("x"), W("x"), ProbeConfig(search_bound=3))
        assert found.status == WITNESS_FOUND
        assert found.witness == identity(2)

    def test_generators_not_weakly_comparable_within_bound(self):
        # conjugation preserves the abelianized class, so every conjugate of y
        # keeps lowest part Y and stays infinitesimal with respect to x
        found = weak_comparability_search(W("x"), W("y"), ProbeConfig(search_bound=3))
        assert found.status == NOT_FOUND_WITHIN_BOUND
        assert found.witness is None

    def test_opposite_commutators_comparable(self):
        f = commutator(W("x"), W("y"))
        g = commutator(W("y"), W("x"))
        found = weak_comparability_search(f, g, ProbeConfig(search_bound=2))
        assert found.status == WITNESS_FOUND
        assert found.witness == identity(2)

    def test_trivial_inputs_rejected(self):
        with pytest.raises(ValueError):
            weak_comparability_search(identity(2), W("x"), ProbeConfig())

    def test_matches_brute_force_search(self):
        # the direct definition: scan every h and test infinitesimality both ways
        def brute_force(f, g, bound):
            checked = 0
            for h in enumerate_words(2, bound):
                checked += 1
                c = conjugate(g, h)
                if not is_infinitesimal(f, c) and not is_infinitesimal(c, f):
                    return WITNESS_FOUND, h, checked
            return NOT_FOUND_WITHIN_BOUND, None, checked

        rng = random.Random(31)
        statuses = set()
        for _ in range(200):
            f = random_word(rng, 2, 4)
            g = random_word(rng, 2, 4)
            bound = rng.randint(1, 3)
            found = weak_comparability_search(f, g, ProbeConfig(search_bound=bound))
            expected = brute_force(f, g, bound)
            assert (found.status, found.witness, found.checked) == expected
            statuses.add(found.status)
        assert statuses == {WITNESS_FOUND, NOT_FOUND_WITHIN_BOUND}


class TestDeterminism:
    def test_probe_results_reproducible(self):
        for probe in (lambda: subgroup_probe(W("x"), SMALL),
                      lambda: dominant_check(W("y"), SMALL),
                      lambda: commutator_infinitesimal_probe(2, SMALL),
                      lambda: order_preservation_probe(swap_map(), SMALL)):
            assert probe() == probe()

    def test_enumerate_words_shortlex(self):
        words = list(enumerate_words(2, 2))
        assert words[0] == identity(2)
        assert words[1:5] == [W("x"), W("X"), W("y"), W("Y")]
        assert len(words) == 1 + 4 + 12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(samples=0)
        with pytest.raises(ValueError):
            ProbeConfig(max_word_length=0)
