import random

import pytest

from biorder import magnus
from biorder.freegroup import (Word, commutator, identity, invert, letter,
                               multiply, power, random_word)
from biorder.magnus import (EQ, GT, LT, NoLowestTermError, Series,
                            TrivialElementError, archimedean_key, compare,
                            expand, in_gamma, is_infinitesimal, lowest_term,
                            magnitude, series_mul, sign)
from helpers import W, lowest_term_by_expansion, reduce, series_one


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


def letter_series(rank, gen, sign, d):
    """1 + X_gen, or the truncated geometric series 1 - X_gen + X_gen^2 - ..."""
    if sign == 1:
        coeffs = {(): 1, (gen,): 1} if d >= 1 else {(): 1}
    else:
        coeffs = {(gen,) * k: (-1) ** k for k in range(d + 1)}
    return Series(rank, d, coeffs)


def weighted_word(rng, rank, length, inverse_share):
    """Reduced word of exactly the given length; each letter is inverted with
    probability inverse_share (strictly between 0 and 1)."""
    letters = []
    while len(letters) < length:
        g = rng.randrange(rank)
        s = -1 if rng.random() < inverse_share else 1
        if letters and letters[-1] == (g, -s):
            continue
        letters.append((g, s))
    return Word(rank, tuple(letters))


def nested_commutator(k):
    """[..[[a1,a2],a3]..,ak] in rank 3 with a_i = generator (i - 1) mod 3."""
    w = letter(3, 0)
    for i in range(1, k):
        w = commutator(w, letter(3, i % 3))
    return w


def lie_bracket(u, v):
    """UV - VU on homogeneous parts given as {monomial: coefficient} dicts."""
    out = {}
    for sign, (left, right) in ((1, (u, v)), (-1, (v, u))):
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


class TestShiftAdd:
    def test_equals_product_of_letter_series(self):
        # the product is built once at truncation 7; truncating it to d is the
        # product truncated at d
        rng = random.Random(29)
        for i in range(40):
            rank = 1 + i % 4
            w = weighted_word(rng, rank, rng.randint(0, 25), (0.5, 0.85)[i // 4 % 2])
            product = series_one(rank, 7)
            for g, s in w.letters:
                product = series_mul(product, letter_series(rank, g, s, 7))
            for d in range(8):
                low = {m: c for m, c in product.coeffs.items() if len(m) <= d}
                assert expand(w, d) == Series(rank, d, low), (w, d)

    def test_nested_commutator_lowest_term_is_iterated_bracket(self):
        bracket = {(0,): 1}
        for k in range(2, 10):
            bracket = lie_bracket(bracket, {((k - 1) % 3,): 1})
            w = nested_commutator(k)
            lt = lowest_term(w)
            assert lt.degree == k
            assert dict(lt.part) == bracket
            assert in_gamma(w, k)
            assert not in_gamma(w, k + 1)
        assert (len(w), len(bracket)) == (766, 214)

    def test_expansion_never_multiplies_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("series_mul called")

        monkeypatch.setattr(magnus, "series_mul", refuse)
        w = nested_commutator(5)
        assert expand(w, 5).homogeneous_part(5)
        assert lowest_term(w).degree == 5
        assert in_gamma(w, 5) and not in_gamma(w, 6)
        assert is_infinitesimal(w, letter(3, 0))


class TestSeriesMul:
    def test_inverse_pair_collapses(self):
        s = series_mul(expand(W("x"), 2), expand(W("X"), 2))
        assert s.coeffs == {(): 1}

    def test_unit(self):
        s = expand(W("x y X"), 3)
        assert series_mul(s, series_one(2, 3)) == s

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


def zero_sum_word(rng, rank: int, max_length: int) -> Word:
    """u times the inverse of a shuffle of u: every exponent sum is 0."""
    u = random_word(rng, rank, max_length)
    shuffled = list(u.letters)
    rng.shuffle(shuffled)
    return multiply(u, invert(reduce(rank, shuffled)))


class TestLowestTermOracle:
    """lowest_term reads degree 1 off the exponent sums; the oracle expands."""

    def test_matches_expansion_on_random_words(self):
        rng = random.Random(29)
        for rank in (2, 3, 4):
            for _ in range(200):
                w = random_word(rng, rank, 12)
                assert lowest_term(w) == lowest_term_by_expansion(w)

    def test_matches_expansion_on_zero_exponent_sums(self):
        rng = random.Random(30)
        degrees = set()
        for rank in (2, 3, 4):
            for _ in range(150):
                w = zero_sum_word(rng, rank, 8)
                if w.is_identity:
                    continue
                assert w.exponent_vector() == (0,) * rank
                lt = lowest_term(w)
                assert lt == lowest_term_by_expansion(w)
                degrees.add(lt.degree)
        assert {2, 3} <= degrees

    def test_expands_only_zero_exponent_sums(self, monkeypatch):
        truncations = []

        def recording_expand(w, truncation):
            truncations.append(truncation)
            return expand(w, truncation)

        monkeypatch.setattr(magnus, "expand", recording_expand)
        assert lowest_term(W("x y X")).degree == 1
        assert lowest_term(commutator(W("x y"), W("y"))).degree == 2  # exact pass
        assert truncations == []
        assert lowest_term(commutator(commutator(W("x"), W("y")), W("y"))).degree == 3
        assert truncations == [3]

    def test_degree2_part_matches_expansion(self):
        # the one-pass degree-2 part holds for every word, not only zero sums
        rng = random.Random(28)
        for rank in (1, 2, 3, 4):
            for _ in range(150):
                w = random_word(rng, rank, 12, allow_identity=True)
                assert magnus._degree2_part(w) == tuple(
                    sorted(expand(w, 2).homogeneous_part(2).items()))


def recording_expand(monkeypatch) -> list:
    """Route magnus.expand through a recorder; returns the truncations seen."""
    truncations = []

    def record(w, truncation):
        truncations.append(truncation)
        return expand(w, truncation)

    monkeypatch.setattr(magnus, "expand", record)
    return truncations


def deep_zero_sum_words(seed: int, count: int) -> list:
    """Nontrivial zero-sum words of ranks 2-4 with lowest degrees 2 to 5:
    shuffled-inverse words, commutators and commutators of those."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = 2 + len(out) % 3
        u = zero_sum_word(rng, rank, 6)
        v = random_word(rng, rank, 4)
        for w in (u, commutator(u, v), commutator(commutator(v, u), v)):
            if not w.is_identity:
                out.append(w)
    return out


class TestLowestTermByEvaluation:
    """Evaluation at integer points picks the truncation; one expansion decides."""

    def test_matches_expansion_on_deep_zero_sum_words(self, monkeypatch):
        words = deep_zero_sum_words(31, 150)
        truncations = recording_expand(monkeypatch)
        lts = [lowest_term(w) for w in words]
        # one expansion each past degree 2, which is read exactly
        assert truncations == [lt.degree for lt in lts if lt.degree > 2]
        monkeypatch.undo()
        assert lts == [lowest_term_by_expansion(w) for w in words]
        assert {2, 3, 4, 5} <= {lt.degree for lt in lts}

    def test_nests_expand_once_at_their_degree(self, monkeypatch):
        nests = {k: nested_commutator(k) for k in range(4, 9)}
        truncations = recording_expand(monkeypatch)
        lts = {k: lowest_term(w) for k, w in nests.items()}
        assert truncations == list(nests)
        monkeypatch.undo()
        for k, w in nests.items():
            assert lts[k] == lowest_term_by_expansion(w)

    def test_fresh_points_after_a_ladder_of_zeros(self, monkeypatch):
        # every evaluation of the first ladder reads zero, as a false zero at
        # each rung would; fresh points then find the degree, and the one
        # expansion still gives the exact term
        real_points = magnus._points
        words = [nested_commutator(4), *deep_zero_sum_words(32, 60)]
        words = [w for w in words if lowest_term_by_expansion(w).degree > 2]
        assert len(words) >= 20
        for w in words:
            tops = []

            def points(rank, top):
                zero = len(w) not in tops  # the first ladder ends at len(w)
                tops.append(top)
                return [[0] * top for _ in range(rank)] if zero else real_points(rank, top)

            monkeypatch.setattr(magnus, "_points", points)
            truncations = recording_expand(monkeypatch)
            lt = lowest_term(w)
            # degree 2 is read exactly, so each ladder starts at 4
            assert tops[0] == tops[tops.index(len(w)) + 1] == min(4, len(w))
            assert truncations == [lt.degree]
            monkeypatch.undo()
            assert lt == lowest_term_by_expansion(w)
            assert in_gamma(w, lt.degree) and not in_gamma(w, lt.degree + 1)


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

    def test_integer_evaluation_keeps_the_expansion_answers(self):
        # the evaluation runs over Z; whatever it reads, lowest_term and
        # in_gamma give what expansion alone gives
        def in_gamma_by_expansion(w, k):
            return all(not m for m in expand(w, k - 1).coeffs)

        nests = [nested_commutator(k) for k in range(2, 10)]
        for k, w in enumerate(nests, start=2):
            assert lowest_term(w) == lowest_term_by_expansion(w), k
            for j in (k - 1, k, k + 1):
                assert in_gamma(w, j) == in_gamma_by_expansion(w, j) == (j <= k), (k, j)
        words = deep_zero_sum_words(47, 2000)
        degrees = set()
        for w in words:
            lt = lowest_term(w)
            assert lt == lowest_term_by_expansion(w), w
            for j in range(2, lt.degree + 2):
                assert in_gamma(w, j) == in_gamma_by_expansion(w, j) == (j <= lt.degree), (w, j)
            degrees.add(lt.degree)
        assert {2, 3, 4, 5} <= degrees

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

    def test_matches_every_layer_below_k_vanishing(self):
        # half the words have zero exponent sums, so the evaluation is reached
        rng = random.Random(33)
        words = [random_word(rng, 2 + i % 3, 7) for i in range(150)]
        while len(words) < 300:
            rank = 2 + len(words) % 3
            for w in (zero_sum_word(rng, rank, 4),
                      commutator(random_word(rng, rank, 3), random_word(rng, rank, 2))):
                if not w.is_identity and len(words) < 300:
                    words.append(w)
        assert {lowest_term(w).degree for w in words[150:]} >= {2, 3}
        for w in words:
            for k in range(1, len(w) + 2):
                layers = expand(w, k - 1).coeffs
                assert in_gamma(w, k) == all(not m for m in layers), (w, k)

    def test_nest_pairs_and_no_expansion_to_refute(self, monkeypatch):
        nests = {k: nested_commutator(k) for k in range(1, 9)}
        for k in range(2, 9):
            truncations = recording_expand(monkeypatch)
            assert in_gamma(nests[k], k)
            assert truncations == [k - 1]
            assert not in_gamma(nests[k - 1], k)
            assert truncations == [k - 1]  # refuted without expanding
            monkeypatch.undo()
            assert all(not m for m in expand(nests[k], k - 1).coeffs)
            assert any(m for m in expand(nests[k - 1], k - 1).coeffs)
