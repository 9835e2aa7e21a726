import random

import pytest

from biorder import magnus
from biorder.freegroup import (commutator, identity, invert, multiply, power,
                               random_word)
from biorder.magnus import (EQ, GT, LT, NoLowestTermError, Series,
                            TrivialElementError, archimedean_key, compare,
                            expand, in_gamma, is_infinitesimal, lowest_term,
                            magnitude, series_mul, sign)
from helpers import W


class TestExpand:
    def test_generator_image(self):
        assert expand(W("x"), 3).coeffs == {(): 1, (0,): 1}

    def test_inverse_is_truncated_geometric_series(self):
        assert expand(W("X"), 2).coeffs == {(): 1, (0,): -1, (0, 0): 1}

    def test_commutator_expansion(self):
        # hand multiplication of (1+X)(1+Y)(1-X+X^2)(1-Y+Y^2) truncated at 2
        s = expand(commutator(W("x"), W("y")), 2)
        assert s.coeffs == {(): 1, (0, 1): 1, (1, 0): -1}

    def test_identity_expands_to_one(self):
        assert expand(identity(2), 4).coeffs == {(): 1}

    def test_multiplicative_up_to_truncation(self):
        rng = random.Random(21)
        for _ in range(1000):
            u = random_word(rng, 2, 8, allow_identity=True)
            v = random_word(rng, 2, 8, allow_identity=True)
            for d in (2, 3, 4):
                assert expand(multiply(u, v), d) == series_mul(expand(u, d), expand(v, d))


class TestSeriesMul:
    def test_inverse_pair_collapses(self):
        s = series_mul(expand(W("x"), 2), expand(W("X"), 2))
        assert s.coeffs == {(): 1}

    def test_unit(self):
        s = expand(W("x y X"), 3)
        assert series_mul(s, Series.one(2, 3)) == s

    def test_distributivity(self):
        s = series_mul(expand(W("x"), 2), expand(W("y"), 2))
        assert s.coeffs == {(): 1, (0,): 1, (1,): 1, (0, 1): 1}


class TestLowestTerm:
    def test_generator(self):
        lt = lowest_term(W("x"))
        assert (lt.degree, lt.part) == (1, (((0,), 1),))

    def test_commutator(self):
        lt = lowest_term(commutator(W("x"), W("y")))
        assert lt.degree == 2
        assert lt.part == (((0, 1), 1), ((1, 0), -1))

    def test_inverse_generator(self):
        lt = lowest_term(W("X"))
        assert (lt.degree, lt.part) == (1, (((0,), -1),))

    def test_identity_rejected(self):
        with pytest.raises(NoLowestTermError):
            lowest_term(identity(2))

    def test_faithfulness_at_desk_scale(self):
        rng = random.Random(22)
        for _ in range(500):
            w = random_word(rng, 3, 12)
            lt = lowest_term(w)
            assert 1 <= lt.degree <= len(w)
            assert sign(w) != 0

    def test_never_expands_past_lowest_degree(self, monkeypatch):
        truncations = []

        def recording_expand(w, truncation):
            truncations.append(truncation)
            return expand(w, truncation)

        monkeypatch.setattr(magnus, "expand", recording_expand)
        w = W("x")
        for letter_text in ("y", "x", "y", "x"):
            w = commutator(w, W(letter_text))
        assert lowest_term(w).degree == 5
        assert max(truncations) == 5

    def test_archimedean_key_is_shared_by_inverse(self):
        rng = random.Random(28)
        for _ in range(300):
            w = random_word(rng, 3, 10)
            lt = lowest_term(w)
            assert archimedean_key(w) == (lt.degree, lt.part[0][0])
            assert archimedean_key(invert(w)) == archimedean_key(w)


class TestSignAndCompare:
    def test_sign_identity(self):
        assert sign(identity(2)) == 0

    def test_sign_generator(self):
        assert sign(W("x")) == 1

    def test_sign_mixed_degree_one(self):
        # Y^-1 X expands to 1 + X - Y + ...; first graded-lex monomial is X
        assert sign(W("Y x")) == 1

    def test_compare_examples(self):
        assert compare(W("x"), W("x")) == EQ
        assert compare(identity(2), W("x")) == LT
        assert compare(W("y"), W("x")) == LT

    def test_total_order_axioms(self):
        rng = random.Random(23)
        for _ in range(300):
            u = random_word(rng, 2, 8, allow_identity=True)
            v = random_word(rng, 2, 8, allow_identity=True)
            w = random_word(rng, 2, 8, allow_identity=True)
            assert compare(u, v) == -compare(v, u)
            if compare(u, v) != GT and compare(v, w) != GT:
                assert compare(u, w) != GT
            assert (compare(u, v) == EQ) == (u == v)

    def test_bi_invariance(self):
        rng = random.Random(24)
        for _ in range(1000):
            u = random_word(rng, 2, 8, allow_identity=True)
            v = random_word(rng, 2, 8, allow_identity=True)
            h = random_word(rng, 2, 8, allow_identity=True)
            c = compare(u, v)
            assert compare(multiply(h, u), multiply(h, v)) == c
            assert compare(multiply(u, h), multiply(v, h)) == c


def infinitesimal_oracle(f, g, exponents):
    """Direct definition: |f|^n < |g| for the given n."""
    fm, gm = magnitude(f), magnitude(g)
    return all(compare(power(fm, n), gm) == LT for n in exponents)


class TestIsInfinitesimal:
    def test_commutator_below_generator(self):
        f = commutator(W("x"), W("y"))
        assert is_infinitesimal(f, W("x"))
        assert infinitesimal_oracle(f, W("x"), range(1, 101))

    def test_second_generator_below_first(self):
        assert is_infinitesimal(W("y"), W("x"))
        assert infinitesimal_oracle(W("y"), W("x"), range(1, 101))

    def test_not_below_itself(self):
        assert not is_infinitesimal(W("x"), W("x"))

    def test_trivial_arguments_rejected(self):
        with pytest.raises(TrivialElementError):
            is_infinitesimal(identity(2), W("x"))
        with pytest.raises(TrivialElementError):
            is_infinitesimal(W("x"), identity(2))

    def test_agrees_with_direct_definition(self):
        # |f|^n is increasing in n (bi-invariance), so checking n = 100 covers
        # every smaller exponent; small exponents are still probed directly.
        rng = random.Random(25)
        for _ in range(500):
            f = random_word(rng, 2, 5)
            g = random_word(rng, 2, 5)
            assert is_infinitesimal(f, g) == infinitesimal_oracle(
                f, g, (1, 2, 3, 100))

    def test_agrees_with_full_sweep_on_small_sample(self):
        rng = random.Random(26)
        for _ in range(20):
            f = random_word(rng, 2, 4)
            g = random_word(rng, 2, 4)
            assert is_infinitesimal(f, g) == infinitesimal_oracle(
                f, g, range(1, 101))


class TestInGamma:
    def test_commutator_in_gamma2(self):
        assert in_gamma(commutator(W("x"), W("y")), 2)

    def test_generator_not_in_gamma2(self):
        assert not in_gamma(W("x"), 2)

    def test_double_commutator_in_gamma3(self):
        w = commutator(commutator(W("x"), W("y")), W("x"))
        assert in_gamma(w, 3)
        assert not in_gamma(w, 4)

    def test_everything_in_gamma1(self):
        assert in_gamma(W("x"), 1)
        assert in_gamma(identity(2), 1)

    def test_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            in_gamma(W("x"), 0)

    def test_gamma2_is_abelianization_kernel(self):
        rng = random.Random(27)
        for _ in range(300):
            w = random_word(rng, 2, 10, allow_identity=True)
            assert in_gamma(w, 2) == all(e == 0 for e in w.exponent_vector())
