import random
import re

import pytest

from biorder import orderprops
from biorder.corpus import corpus_entries
from biorder.freegroup import (FreeMap, NotAnAutomorphismError, apply_map,
                               commutator, conjugate, identity, invert,
                               multiply, random_word, substitution)
from biorder.magnus import EQ, GT, is_infinitesimal, sign
from biorder.orderprops import (NOT_FOUND_WITHIN_BOUND, WITNESS_FOUND,
                                NotPositiveError, PremiseUnmetError,
                                ProbeConfig, ProbeResult,
                                commutator_infinitesimal_probe,
                                dominant_check, invariance_probe,
                                normality_probe, order_preservation_probe,
                                semidirect_compare, semidirect_order_probe,
                                subgroup_probe, weak_comparability_search)
from helpers import (W, enumerate_words, fresh_rng_trials,
                     order_preservation_by_image, random_automorphism,
                     semidirect_mul, semidirect_trial_pairs,
                     semidirect_trials_by_mul)

CFG = ProbeConfig(seed=7, samples=300, max_word_length=10)
SMALL = ProbeConfig(seed=7, samples=60, max_word_length=8)


def identity_map2():
    return FreeMap(2, (W("x"), W("y")), (W("x"), W("y")))


def swap_map():
    return FreeMap(2, (W("y"), W("x")), (W("y"), W("x")))


def conjugation_by_x():
    return FreeMap(2, (W("x"), W("x y X")), (W("x"), W("X y x")))


def commutator_map():
    """x -> [x, y], y -> y: an endomorphism whose exponent-sum matrix is
    singular, so phi(w) can have all sums zero while w does not."""
    return FreeMap(2, (W("x y X Y"), W("y")))


class TestSubgroupProbe:
    def test_passes_for_dominant_generator(self):
        result = subgroup_probe(W("x"), CFG)
        assert result.passed and result.trials > 0

    def test_requires_positive_element(self):
        with pytest.raises(NotPositiveError):
            subgroup_probe(W("X"), CFG)

    def test_short_trial_count_is_warned(self):
        # infinitesimals w.r.t. [x, y] are rare among words of length <= 10,
        # so most samples give up after 500 draws
        result = subgroup_probe(commutator(W("x"), W("y")), ProbeConfig(samples=20))
        assert result.passed and 0 < result.trials < 20
        assert result.warnings == (f"only {result.trials} of 20 samples found an "
                                   "infinitesimal within 500 draws",)
        assert subgroup_probe(W("x"), ProbeConfig(samples=20)).warnings == ()

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


class TestDrawBudget:
    """_DRAW_BUDGET caps the words one rejection-sampled probe draws."""

    @pytest.mark.parametrize("run", [
        lambda cfg: subgroup_probe(W("x"), cfg),
        lambda cfg: normality_probe(W("x"), cfg),
        lambda cfg: invariance_probe(conjugation_by_x(), cfg),
    ], ids=["subgroup", "normality", "invariance"])
    def test_budget_stops_probe_and_warns_draws_spent(self, monkeypatch, run):
        cfg = ProbeConfig(seed=5, samples=60, max_word_length=8)
        monkeypatch.setattr(orderprops, "_DRAW_BUDGET", 40)
        result = run(cfg)
        [stop] = [m for w in result.warnings
                  if (m := re.fullmatch(r"stopped after (\d+) of 60 samples: (\d+) "
                                        r"draws spent the budget of 40", w))]
        tried, spent = int(stop[1]), int(stop[2])
        assert 0 < result.trials <= tried < 60 and spent >= 40
        monkeypatch.undo()
        # the samples that ran are those of the same probe with fewer samples
        prefix = run(ProbeConfig(seed=5, samples=tried, max_word_length=8))
        assert (result.trials, result.failures) == (prefix.trials, prefix.failures)

    def test_spent_draws_are_counted(self, monkeypatch):
        draws = []

        def counting_random_word(*args, **kwargs):
            draws.append(1)
            return random_word(*args, **kwargs)

        monkeypatch.setattr(orderprops, "_DRAW_BUDGET", 1200)
        monkeypatch.setattr(orderprops, "random_word", counting_random_word)
        result = subgroup_probe(commutator(W("x"), W("y")), ProbeConfig(samples=20))
        assert any(w.endswith(f": {len(draws)} draws spent the budget of 1200")
                   for w in result.warnings), result.warnings

    def test_default_sample_count_never_reaches_budget(self):
        # a trial draws at most two samples of _DRAWS words each, and the
        # budget is checked before each sample
        assert orderprops._DRAW_BUDGET >= 2 * ProbeConfig().samples * orderprops._DRAWS


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

    def test_skipped_samples_are_not_warned(self):
        # one-letter samples equal to g are skipped; the generators add 3 trials
        cfg = ProbeConfig(seed=3, samples=20, max_word_length=1)
        result = dominant_check(W("x"), cfg)
        assert result.passed and result.trials < 3 + cfg.samples
        assert result.warnings == ()


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

    def test_skipped_identity_commutators_are_not_warned(self):
        cfg = ProbeConfig(seed=3, samples=20, max_word_length=1)
        result = commutator_infinitesimal_probe(2, cfg)
        assert result.passed and 0 < result.trials < cfg.samples
        assert result.warnings == ()

    def test_zero_trials_are_warned(self):
        # rank 1 has only trivial commutators; the one sample at seed 0 is [y, Y] = e
        for rank, cfg in ((1, CFG), (2, ProbeConfig(seed=0, samples=1, max_word_length=1))):
            result = commutator_infinitesimal_probe(rank, cfg)
            assert result.passed and result.trials == 0
            assert result.warnings == ("no sample produced a trial, so nothing was tested",)


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

    def test_probe_equals_applying_phi_to_every_word(self, monkeypatch):
        applied = []  # the words the probe applies phi to

        def recording_substitution(phi):
            image = substitution(phi)

            def apply(w):
                applied.append(w)
                return image(w)
            return apply

        monkeypatch.setattr(orderprops, "substitution", recording_substitution)
        rng = random.Random(37)
        maps = [entry.record.phi for entry in corpus_entries()]
        maps += [swap_map(), conjugation_by_x()]
        maps += [random_automorphism(rng, rank) for rank in (2, 3, 4) for _ in range(3)]
        outcomes = set()
        for seed, phi in enumerate(maps + [commutator_map()]):
            cfg = ProbeConfig(seed=seed, samples=80, max_word_length=8)
            applied.clear()
            result = order_preservation_probe(phi, cfg)
            assert (result.trials, result.failures) == order_preservation_by_image(phi, cfg)
            outcomes.add(result.passed)
            if phi in maps:  # M is invertible: phi is applied only where e(w) = 0
                assert not any(any(w.exponent_vector()) for w in applied)
        assert outcomes == {True, False}
        # the commutator map sends e(w) = (k, 0) to 0, and phi(w) is applied
        assert any(any(w.exponent_vector()) for w in applied)

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
        assert semidirect_compare((1, identity(2)), (0, W("y Y x"))) == GT

    def test_word_part_breaks_ties(self):
        assert semidirect_compare((0, W("x")), (0, W("y"))) == GT

    def test_equal_pairs(self):
        assert semidirect_compare((0, identity(2)), (0, identity(2))) == EQ

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

    def test_probe_needs_inverse_images(self):
        # phi^-1 is built before sampling, so no seed escapes by drawing
        # only non-negative exponents
        phi = FreeMap(2, (W("y"), W("y X")))
        for seed in range(20):
            with pytest.raises(NotAnAutomorphismError):
                semidirect_order_probe(phi, ProbeConfig(seed=seed, samples=1))

    def test_probe_equals_products_through_semidirect_mul(self):
        rng = random.Random(31)
        maps = [entry.record.phi for entry in corpus_entries()]
        maps += [swap_map(), conjugation_by_x()]
        maps += [random_automorphism(rng, rank) for rank in (2, 3, 4) for _ in range(3)]
        failing = 0
        for seed, phi in enumerate(maps):
            cfg = ProbeConfig(seed=seed, samples=25, max_word_length=8)
            result = semidirect_order_probe(phi, cfg)
            assert (result.trials, result.failures) == semidirect_trials_by_mul(phi, cfg)
            assert (result.warnings == ()) == order_preservation_probe(phi, cfg).passed
            failing += bool(result.failures)
        assert failing >= 2  # counterexamples are compared too, not only PASS


    def test_products_are_formed_on_integer_ties_only(self, monkeypatch):
        products = []

        def recording_multiply(w1, w2):
            products.append((w1, w2))
            return multiply(w1, w2)

        monkeypatch.setattr(orderprops, "multiply", recording_multiply)
        maps = [entry.record.phi for entry in corpus_entries()]
        for seed, phi in enumerate(maps + [swap_map(), conjugation_by_x()]):
            cfg = ProbeConfig(seed=seed, samples=60, max_word_length=8)
            products.clear()
            semidirect_order_probe(phi, cfg)
            # q p1 against q p2 and p1 q against p2 q tie on the integer
            # exactly when p1 and p2 do
            ties = sum(2 for p1, p2, _, _ in semidirect_trial_pairs(phi, cfg)
                       if p1[0] == p2[0])
            assert 0 < ties < 2 * cfg.samples
            assert len(products) == 2 * ties

    def test_premise_stops_at_its_first_failing_trial(self, monkeypatch):
        cfg = ProbeConfig(seed=7, samples=60, max_word_length=8)
        first = next(i for i in range(cfg.samples) if order_preservation_by_image(
            swap_map(), ProbeConfig(seed=7, samples=i + 1, max_word_length=8))[1])
        premise_words = []

        def recording_random_word(rng, rank, max_length, allow_identity=False):
            if not allow_identity:  # the premise's words; the pairs may be e
                premise_words.append(1)
            return random_word(rng, rank, max_length, allow_identity)

        monkeypatch.setattr(orderprops, "random_word", recording_random_word)
        result = semidirect_order_probe(swap_map(), cfg)
        assert 0 < first and len(premise_words) == first + 1
        assert result.warnings == ("order-preservation premise failed; the semidirect "
                                   "order need not be bi-invariant",)


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
            for h in enumerate_words(f.rank, bound):
                checked += 1
                c = conjugate(g, h)
                if not is_infinitesimal(f, c) and not is_infinitesimal(c, f):
                    return WITNESS_FOUND, h, checked
            return NOT_FOUND_WITHIN_BOUND, None, checked

        rng = random.Random(31)
        statuses = set()
        for rank in (2,) * 200 + (3,) * 60:
            f = random_word(rng, rank, 4)
            g = random_word(rng, rank, 4)
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

    def test_trials_draw_the_streams_of_fresh_sub_seeded_rngs(self, monkeypatch):
        # the one rng a probe run reseeds per trial draws what a fresh
        # random.Random(_trial_seed(cfg, i)) for trial i would draw
        maps = [entry.record.phi for entry in corpus_entries()] + [swap_map()]

        def battery(cfg):
            probes = [lambda: subgroup_probe(W("x"), cfg),
                      lambda: normality_probe(W("x"), cfg),
                      lambda: normality_probe(W("y"), cfg),
                      lambda: dominant_check(W("x"), cfg),
                      lambda: commutator_infinitesimal_probe(3, cfg)]
            for phi in maps:
                probes += [lambda phi=phi: order_preservation_probe(phi, cfg),
                           lambda phi=phi: invariance_probe(phi, cfg),
                           lambda phi=phi: semidirect_order_probe(phi, cfg)]
            out = []
            for probe in probes:
                try:
                    out.append(probe())
                except PremiseUnmetError as exc:
                    out.append(("PREMISE_UNMET", exc.premise_result))
            return out

        for seed in range(5):
            cfg = ProbeConfig(seed=seed, samples=40, max_word_length=8)
            results = battery(cfg)
            with monkeypatch.context() as m:
                m.setattr(orderprops, "_run_trials", fresh_rng_trials(orderprops._run_trials))
                assert battery(cfg) == results, seed
            assert {type(r) for r in results} == {ProbeResult, tuple}
            assert any(isinstance(r, ProbeResult) and r.failures for r in results)

    def test_enumerate_words_shortlex(self):
        words = list(enumerate_words(2, 2))
        assert words[0] == identity(2)
        assert words[1:5] == [W("x"), W("X"), W("y"), W("Y")]
        assert len(words) == 1 + 4 + 12

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            ProbeConfig(samples=0)
        with pytest.raises(ValueError, match="^max_word_length must be >= 1$"):
            ProbeConfig(max_word_length=0)
