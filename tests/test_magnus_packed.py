"""The expansion against the dict-layer oracle and a product of letter series,
the packed layers' field-width edge, the memory it takes against the dict
layers, and the guards that keep expand and in_gamma from needless work."""

import itertools
import random
import tracemalloc
from math import comb

import pytest

from biorder import magnus
from biorder.freegroup import (Word, commutator, identity, letter, multiply,
                               power, random_word)
from biorder.magnus import Series, expand, in_gamma, series_mul
from helpers import W, expand_by_dict_layers, series_one

# The bench's nest letters a1..a8 as generator numbers; every battery renames
# the generators by a permutation of 0, 1, 2.
NEST_PATTERN = (0, 1, 2, 0, 1, 2, 0, 1)
# Word lengths sampled per (rank, truncation); lengths up to 8 always run,
# longer ones while length * rank^truncation stays within BUDGET, which
# bounds the work of both expansions.
LENGTHS = (0, 1, 2, 3, 5, 8, 13, 25, 60, 150, 400)
BUDGET = 60_000


def powers_word(rng, rank: int, length: int):
    """A word of about the given length made of runs x_g^e, |e| up to 6, so
    long runs of one letter push the coefficients toward the width bound."""
    w = identity(rank)
    while len(w) < length:
        e = rng.choice((-1, 1)) * rng.randint(1, min(6, length - len(w)))
        w = multiply(w, power(letter(rank, rng.randrange(rank)), e))
    return w


def nest(rank: int, letters, k: int):
    """[..[[a1, a2], a3].., ak] with a_i = letters[(i - 1) % len(letters)]."""
    w = letter(rank, letters[0])
    for i in range(1, k):
        w = commutator(w, letter(rank, letters[i % len(letters)]))
    return w


def bench_nests(perm, rank: int = 3):
    """The nests of degree 4..8 with a_i = perm[NEST_PATTERN[i]]."""
    return [nest(rank, [perm[p] for p in NEST_PATTERN], k) for k in range(4, 9)]


def spelled_with(w, rank: int, alphabet):
    """w with generator i renamed alphabet[i], as a word of the given rank."""
    return Word(rank, tuple((alphabet[g], s) for g, s in w.letters))


def product_of_letter_series(w, top: int) -> Series:
    """The product of 1 + X_g for x_g and 1 - X_g + X_g^2 - ... for x_g^-1,
    multiplied out by series_mul at truncation top."""
    product = series_one(w.rank, top)
    for g, s in w.letters:
        degrees = range(top + 1) if s < 0 else range(min(top, 1) + 1)
        product = series_mul(product, Series(w.rank, top, {(g,) * j: s ** j for j in degrees}))
    return product


def peak_bytes(expansion, w, top: int) -> int:
    """Peak memory traced while expansion(w, top) runs, its result included,
    above what was traced before it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        expansion(w, top)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestAgreesWithDictLayers:
    def test_random_words(self):
        rng = random.Random(35)
        longest = {}
        for rank, top in itertools.product(range(1, 6), range(9)):
            for length in LENGTHS:
                if length > 8 and length * rank ** top > BUDGET:
                    break
                for w in (random_word(rng, rank, length, allow_identity=True),
                          powers_word(rng, rank, length)):
                    assert expand(w, top) == expand_by_dict_layers(w, top), (w, top)
                    longest[rank, top] = max(longest.get((rank, top), 0), len(w))
        assert min(longest.values()) >= 8 and len(longest) == 5 * 9
        assert {rank for (rank, _), n in longest.items() if n >= 400} == {1, 2, 3, 4, 5}

    def test_bench_nests(self):
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            nests = bench_nests(perm)
            assert [len(w) for w in nests] == [22, 46, 94, 190, 382]
            for w, top in itertools.product(nests, range(9)):
                assert expand(w, top) == expand_by_dict_layers(w, top), (perm, len(w), top)

    def test_few_letters_of_a_large_rank(self):
        rng = random.Random(36)
        for rank, alphabet in ((6, (5,)), (6, (1, 4)), (10, (0, 9)), (10, (2, 5, 7)),
                               (10, (0, 3, 6, 9))):
            u = len(alphabet)
            for top, length in itertools.product(range(9), LENGTHS):
                if length > 8 and length * u ** top > BUDGET:
                    continue
                for w in (random_word(rng, u, length, allow_identity=True),
                          powers_word(rng, u, length)):
                    w = spelled_with(w, rank, alphabet)
                    assert expand(w, top) == expand_by_dict_layers(w, top), (alphabet, w, top)


class TestManyLetters:
    def test_words_over_many_letters_match_the_product_of_letter_series(self):
        # u^top above and below magnus._PACKED_FIELDS, so both layer kinds run
        rng = random.Random(37)
        words = [nest(10, range(10), k) for k in (4, 5)]
        for u in range(4, 11):
            for _ in range(3):
                w = random_word(rng, u, rng.randint(8, 30))
                words.append(spelled_with(w, 10, rng.sample(range(10), u)))
        packed = set()
        for w, top in itertools.product(words, (3, 4, 5, 6)):
            assert expand(w, top) == product_of_letter_series(w, top), (w, top)
            packed.add(len({g for g, _ in w.letters}) ** top <= magnus._PACKED_FIELDS)
        assert packed == {True, False}


class TestMemory:
    def test_bench_nests_at_rank_10_cost_what_they_cost_at_rank_3(self):
        # A layer spans the u generators w uses, whatever the rank.  Low
        # truncations run first, so a layout as wide as the rank fails here
        # long before its layers would reach 10^8 fields.
        small = bench_nests((0, 1, 2))
        for alphabet in ((0, 1, 2), (7, 8, 9)):
            nests = bench_nests(alphabet, rank=10)
            for top in range(9):
                for w3, w in zip(small, nests):
                    peak3, peak = peak_bytes(expand, w3, top), peak_bytes(expand, w, top)
                    assert peak <= 1.25 * peak3 + 4096, (alphabet, len(w), top, peak3, peak)
                    assert expand(w, top) == expand_by_dict_layers(w, top), (alphabet, len(w), top)

    def test_nests_over_many_letters_stay_near_the_dict_layers(self):
        # The nest of 8 distinct letters reaches 4677 of the 8^8 degree-8
        # monomials; packed, it took 645 MB.  Degrees rise, so packed layers
        # over 5 or more letters fail here at degree 6, while still small.
        for k in range(4, 9):
            for letters in ((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), range(10)):
                w = nest(10, letters, k)
                peak, dict_peak = peak_bytes(expand, w, k), peak_bytes(expand_by_dict_layers, w, k)
                assert peak <= 2 * dict_peak + 65536, (k, len(w), letters, peak, dict_peak)


class TestFieldWidth:
    @pytest.mark.parametrize("rank", [1, 3])
    def test_inverse_power_reaches_the_bound(self, rank):
        # X^L = (1 - X + X^2 - ...)^L: the coefficient of X^d is
        # (-1)^d C(L+d-1, d), the largest any L-letter word has at degree d
        for length in [*range(1, 61), 127, 128, 255, 256, 382, 400]:
            for g in {0, rank - 1}:
                w = power(letter(rank, g), -length)
                for d in (1, 5, 8):
                    s = expand(w, d)
                    assert s.coeffs == {(g,) * j: (-1) ** j * comb(length + j - 1, j)
                                        for j in range(d + 1)}, (rank, g, length, d)


class TestGuards:
    def test_negative_truncation_rejected_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("expand did work for a negative truncation")

        monkeypatch.setattr(magnus, "comb", refuse)
        with pytest.raises(ValueError, match=r"^truncation must be >= 0$"):
            expand(W("x y"), -1)
        with pytest.raises(ValueError, match=r"^truncation must be >= 0$"):
            expand(identity(2), -1)

    def test_in_gamma_past_the_word_length_does_no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("in_gamma evaluated or expanded")

        monkeypatch.setattr(magnus, "expand", refuse)
        monkeypatch.setattr(magnus, "_evaluated_degree", refuse)
        assert in_gamma(identity(2), 10 ** 6)
        assert not in_gamma(W("x y X Y"), 10 ** 6)
        assert not in_gamma(W("x y X Y"), 5)
        assert not in_gamma(W("x"), 2)
