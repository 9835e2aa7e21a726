import random
import time

import pytest

from biorder.freegroup import (FreeMap, GeneratorRangeError, NotAnAutomorphismError,
                               RankMismatchError, Word, apply_map,
                               check_generator_names, commutator, compose,
                               conjugate, default_names, format_word, identity,
                               identity_map, invert, inverse_map, letter,
                               multiply, parse_word, power, random_word,
                               verify_automorphism)
from biorder.corpus import corpus_entries
from biorder.lcs import abelianized
from biorder.presentation import KnotRecord
from helpers import (W, apply_map_by_fold, bareiss_det,
                     inverse_image_refusal_by_letter,
                     is_automorphism_by_two_compositions, naive_reduce,
                     not_onto_certificate, random_automorphism,
                     random_word_by_stdlib, reduce)


X, Y = (0, 1), (1, 1)
Xi, Yi = (0, -1), (1, -1)


class TestReduce:
    def test_cancelling_pair(self):
        assert reduce(2, [X, Xi]) == identity(2)

    def test_inner_cancellation_then_merge(self):
        assert reduce(2, [X, Y, Yi, X]) == W("x x")

    def test_nested_cancellation(self):
        assert reduce(2, [(0, 1), (1, 1), (1, -1), (0, -1)]) == identity(2)

    def test_out_of_range_index(self):
        with pytest.raises(GeneratorRangeError):
            reduce(2, [(2, 1)])

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="^letter sign must be \\+1 or -1, got 2$"):
            reduce(2, [(0, 2)])

    def test_matches_naive_oracle_on_raw_sequences(self):
        rng = random.Random(11)
        for _ in range(300):
            raw = [(rng.randrange(2), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 14))]
            assert reduce(2, raw).letters == naive_reduce(raw)

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(200):
            w = random_word(rng, 3, 12, allow_identity=True)
            assert reduce(3, w.letters) == w


class TestGroupOps:
    def test_multiply_inverse_pair(self):
        assert multiply(W("x"), W("X")) == identity(2)

    def test_multiply_seam_cancellation(self):
        assert multiply(W("x y"), W("Y x")) == W("x x")

    def test_multiply_no_cancellation(self):
        assert multiply(W("a b", "ab"), W("a b", "ab")) == W("a b a b", "ab")

    def test_multiply_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(W("x"), parse_word("a", ("a", "b", "c")))

    def test_invert(self):
        assert invert(W("x y")) == W("Y X")
        assert invert(identity(2)) == identity(2)
        assert invert(W("x x")) == W("X X")

    def test_commutator_self_is_trivial(self):
        assert commutator(W("x"), W("x")) == identity(2)

    def test_commutator_definition(self):
        assert commutator(W("x"), W("y")) == W("x y X Y")

    def test_commutator_with_shared_letters(self):
        # oracle: literal concatenation x y . y . Y X . Y, then free reduction
        w1, w2 = W("x y"), W("y")
        raw = w1.letters + w2.letters + invert(w1).letters + invert(w2).letters
        expected = Word(2, naive_reduce(raw))
        assert commutator(w1, w2) == expected
        assert expected == W("x y X Y")

    def test_group_axioms_on_random_triples(self):
        rng = random.Random(13)
        for _ in range(1000):
            u = random_word(rng, 2, 8, allow_identity=True)
            v = random_word(rng, 2, 8, allow_identity=True)
            w = random_word(rng, 2, 8, allow_identity=True)
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
            assert multiply(u, invert(u)) == identity(2)


def trefoil_map() -> FreeMap:
    return FreeMap(2, (W("b", "ab"), W("b A", "ab")))


def figure8_map() -> FreeMap:
    return FreeMap(2, (W("a b a", "ab"), W("a b", "ab")))


class TestFreeMaps:
    def test_apply_trefoil(self):
        assert apply_map(trefoil_map(), W("a b", "ab")) == W("b b A", "ab")

    def test_apply_to_identity(self):
        assert apply_map(trefoil_map(), identity(2)) == identity(2)

    def test_apply_figure8_to_inverse_letter(self):
        assert apply_map(figure8_map(), W("B", "ab")) == W("B A", "ab")

    def test_compose_identity_laws(self):
        phi = trefoil_map()
        assert compose(phi, identity_map(2)).images == phi.images
        assert compose(identity_map(2), phi).images == phi.images

    def test_compose_trefoil_squared(self):
        phi2 = compose(trefoil_map(), trefoil_map())
        assert phi2.images == (W("b A", "ab"), W("b A B", "ab"))

    def test_homomorphism_property_per_corpus_map(self):
        rng = random.Random(14)
        for entry in corpus_entries():
            phi = entry.record.phi
            for _ in range(1000):
                u = random_word(rng, phi.rank, 6, allow_identity=True)
                v = random_word(rng, phi.rank, 6, allow_identity=True)
                assert apply_map(phi, multiply(u, v)) == multiply(
                    apply_map(phi, u), apply_map(phi, v))

    def test_corpus_inverses_fix_generators(self):
        for entry in corpus_entries():
            phi = entry.record.phi
            psi = inverse_map(phi)
            for both in (compose(phi, psi), compose(psi, phi)):
                for g in range(phi.rank):
                    assert both.images[g] == letter(phi.rank, g)


def random_endomorphism(rng, rank: int) -> FreeMap:
    """Random image words, the identity among them, so images cancel often."""
    return FreeMap(rank, tuple(random_word(rng, rank, 4, allow_identity=True)
                               for _ in range(rank)))


class TestDerivedWords:
    """multiply, invert and apply_map build their words without validation,
    so these check the words they build."""

    def test_apply_map_equals_multiply_fold(self):
        rng = random.Random(16)
        cancelled = 0
        for rank in (2, 3, 4):
            for _ in range(60):
                for phi in (random_automorphism(rng, rank), random_endomorphism(rng, rank)):
                    w = random_word(rng, rank, 12, allow_identity=True)
                    image = apply_map(phi, w)
                    assert image == apply_map_by_fold(phi, w)
                    cancelled += len(image) < sum(len(phi.images[g]) for g, _ in w.letters)
        assert cancelled > 100  # the seams between images do cancel

    def test_derived_words_are_valid_words(self):
        rng = random.Random(17)
        for rank in (2, 3, 4):
            for _ in range(100):
                u = random_word(rng, rank, 10, allow_identity=True)
                v = random_word(rng, rank, 10, allow_identity=True)
                phi = random_endomorphism(rng, rank)
                for w in (multiply(u, v), invert(u), apply_map(phi, u),
                          commutator(u, v), conjugate(u, v), power(u, -3)):
                    assert Word(w.rank, w.letters) == w

    def test_random_word_matches_validated_reference_draw(self):
        # the stdlib draws (randint, randrange, choice) with the word built by
        # Word(...), which validates it; equal words and rng states after
        # every case mean the same stream
        for seed in range(6):
            for rank in range(1, 26):
                for max_length in (1, 2, 10, 100):
                    for allow_identity in (False, True):
                        rng, ref = random.Random(seed), random.Random(seed)
                        for _ in range(8):
                            w = random_word(rng, rank, max_length, allow_identity)
                            assert w == random_word_by_stdlib(ref, rank, max_length,
                                                              allow_identity)
                        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("rank, max_length, allow_identity",
                             [(0, 5, False), (0, 5, True), (-1, 5, False),
                              (2, 0, False), (2, -1, True), (3, -5, False)])
    def test_empty_ranges_raise_before_drawing(self, rank, max_length, allow_identity):
        # getrandbits(0) is 0, so a redraw loop over an empty range would
        # never end
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError):
            random_word(rng, rank, max_length, allow_identity)
        assert rng.getstate() == state


def refusal(phi: FreeMap) -> str | None:
    """The detail verify_automorphism raises for phi, None when it passes."""
    try:
        verify_automorphism(phi)
    except NotAnAutomorphismError as exc:
        return str(exc)
    return None


FAKE = FreeMap(2, (W("a", "ab"), W("b a b A B", "ab")))  # |det| = 1, not onto


class TestVerifyAutomorphism:
    def test_trefoil_with_inverse_confirmed(self):
        phi = FreeMap(2, (W("b", "ab"), W("b A", "ab")),
                      (W("B a", "ab"), W("a", "ab")))
        assert verify_automorphism(phi) is None

    def test_determinant_two_is_rejected(self):
        phi = FreeMap(2, (W("a a", "ab"), W("b", "ab")))
        assert bareiss_det(abelianized(phi)) == 2
        assert refusal(phi) == "the images of phi do not generate F_n"

    def test_identity_map_confirmed(self):
        assert verify_automorphism(identity_map(3)) is None

    def test_no_inverse_trefoil_confirmed_by_folding(self):
        assert verify_automorphism(trefoil_map()) is None
        assert verify_automorphism(figure8_map()) is None

    def test_fake_map_is_refused_and_has_a_certificate(self):
        # the determinant passes, so only folding can refuse it
        assert abs(bareiss_det(abelianized(FAKE))) == 1
        assert not_onto_certificate(FAKE) is not None
        assert refusal(FAKE) == "the images of phi do not generate F_n"

    def test_refusals_match_determinant_and_finite_quotients(self):
        """Without inverse images, a map is refused exactly when its
        abelianized determinant (by Bareiss elimination) is not +-1 or a map
        to S_3 or S_4 shrinks its images' group: both are independent of the
        folding, and on this sample nothing else refuses a map."""
        rng = random.Random(29)
        kinds = []
        for _ in range(500):
            phi = random_endomorphism(rng, rng.randint(2, 3))
            if abs(bareiss_det(abelianized(phi))) != 1:
                kind = "determinant"
            else:
                certificate = not_onto_certificate(phi)
                kind = f"S_{len(certificate[0])}" if certificate else "onto"
            assert (refusal(phi) is None) == (kind == "onto"), (phi, kind)
            kinds.append(kind)
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "determinant": 418, "S_3": 17, "S_4": 7, "onto": 58}

    def test_nielsen_products_without_inverse_are_confirmed(self):
        rng = random.Random(31)
        for _ in range(1000):
            phi = random_automorphism(rng, rng.randint(2, 5), rng.randint(1, 12))
            assert verify_automorphism(FreeMap(phi.rank, phi.images)) is None, phi

    def test_long_images_are_decided_quickly(self):
        """Folding is near-linear in the images' length: x -> x y^20000 is
        onto, x -> x^2 y^20000 is not, and neither takes long."""
        for head, onto in (("x", True), ("x x", False)):
            phi = FreeMap(2, (W(head + " y" * 20000), W("y")))
            start = time.perf_counter()
            assert (refusal(phi) is None) == onto
            assert time.perf_counter() - start < 1.0

    def test_wrong_inverse_rejected(self):
        phi = FreeMap(2, (W("b", "ab"), W("b A", "ab")),
                      (W("a", "ab"), W("b", "ab")))
        assert refusal(phi) == "phi(inverse(x0)) != x0"

    def test_one_composition_agrees_with_two(self):
        """phi(psi(x)) = x for every generator makes phi onto, and F_n is
        Hopfian, so psi(phi(x)) = x follows: checking one composition gives
        the outcome a check of both gives."""
        rng = random.Random(23)
        outcomes = []
        for _ in range(200):
            rank = rng.randint(2, 4)
            phi = random_automorphism(rng, rank)
            g = rng.randrange(rank)
            off = list(phi.inverse_images)
            off[g] = multiply(off[g], letter(rank, rng.randrange(rank), rng.choice((1, -1))))
            for case in (phi, FreeMap(rank, phi.images, tuple(off)), inverse_map(phi)):
                confirmed = is_automorphism_by_two_compositions(case)
                assert (refusal(case) is None) == confirmed
                outcomes.append(confirmed)
        assert outcomes.count(True) == 400
        assert outcomes.count(False) == 200

    def test_status_and_detail_match_the_letter_comparison(self):
        """Each phi(psi(x_g)) is compared by its letters with ((g, 1),): the
        status (passed or refused) and detail a comparison with the Word
        letter(rank, g) gives.
        One inverse image is perturbed: a letter appended, the image
        inverted (phi(psi(x_g)) = x_g^-1), or another generator's taken."""
        rng = random.Random(41)
        seen = set()
        for _ in range(300):
            rank = rng.randint(2, 4)
            phi = random_automorphism(rng, rank)
            g, h = rng.sample(range(rank), 2)
            off = list(phi.inverse_images)
            off[g] = rng.choice((
                multiply(off[g], letter(rank, rng.randrange(rank), rng.choice((1, -1)))),
                invert(off[g]), off[h]))
            for case in (phi, FreeMap(rank, phi.images, tuple(off))):
                detail = refusal(case)
                assert detail == inverse_image_refusal_by_letter(case)
                seen.add(detail)
            assert detail == f"phi(inverse(x{g})) != x{g}"
        assert len(seen) == 5  # None, and a failure at each of x0..x3


class TestDefaultNames:
    def test_rank5_letter_is_not_spelled_like_the_identity(self):
        assert repr(identity(5)) == "Word('e', rank=5)"
        assert repr(letter(5, 4)) == "Word('f', rank=5)"

    def test_past_rank_25_the_repr_names_no_letter(self):
        w = Word(26, ((25, 1), (0, -1)))
        assert repr(w) == "Word(26, ((25, 1), (0, -1)))"
        assert eval(repr(w), {"Word": Word}) == w
        assert repr(identity(26)) == "Word(26, ())"
        assert repr(letter(26, 25)) in repr(identity_map(26))
        # a record checks its names, and no 26 of them are valid
        names = tuple(f"g{i}" for i in range(26))
        with pytest.raises(ValueError, match="^generator 'g0' must be one lowercase letter$"):
            KnotRecord("r26", identity_map(26), fibered=True, generator_names=names)

    def test_every_default_name_list_passes_the_name_check(self):
        assert default_names(4) == ("a", "b", "c", "d")
        for rank in range(1, 26):
            assert check_generator_names(default_names(rank)) == default_names(rank)
        with pytest.raises(ValueError):
            default_names(26)

    def test_knot_record_defaults_to_the_same_names(self):
        record = KnotRecord("r5", identity_map(5), fibered=True)
        assert record.generator_names == default_names(5) == ("a", "b", "c", "d", "f")
        with pytest.raises(ValueError, match="^need one generator name per generator$"):
            KnotRecord("r5", identity_map(5), fibered=True, generator_names=("a", "b"))

    @pytest.mark.parametrize("names, message", [
        (("e", "e"), "^generator 'e' is reserved for the identity word$"),
        (("a", "a"), "^duplicate generator names$"),
        (("A", "b"), "^generator 'A' must be one lowercase letter$"),
    ])
    def test_knot_record_checks_its_names(self, names, message):
        with pytest.raises(ValueError, match=message):
            KnotRecord("r2", identity_map(2), fibered=True, generator_names=names)


class TestWordSyntax:
    def test_parse_uppercase_is_inverse(self):
        assert parse_word("B X", ("x", "a", "b", "c")) == Word(
            4, ((2, -1), (0, -1)))

    def test_identity_spellings(self):
        assert parse_word("e", ("x", "y")) == identity(2)
        assert parse_word("", ("x", "y")) == identity(2)

    def test_format_round_trip(self):
        rng = random.Random(15)
        names = ("x", "a", "b", "c")
        for _ in range(200):
            w = random_word(rng, 4, 10, allow_identity=True)
            assert parse_word(format_word(w, names), names) == w

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_word("q", ("x", "y"))

    @pytest.mark.parametrize("text, message", [
        ("q", "unknown generator 'q'"),
        ("x Q", "unknown generator 'Q'"),
        ("x bA", "unreadable word token 'bA'"),
        ("x!", "unreadable word token 'x!'"),
        ("x e", "unknown generator 'e'"),
        ("e e", "unknown generator 'e'"),
        ("E", "unknown generator 'E'"),
        # the KELVIN SIGN lower-cases to k, but it is not the upper case of k
        ("\u212a", "unknown generator '\u212a'"),
    ])
    def test_refusals_name_the_token(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_word(text, ("j", "k", "x"))
        assert str(info.value) == message

    def test_letters_cancel_across_tokens(self):
        assert parse_word("x X y", ("x", "y")) == W("y")
        assert parse_word("x y Y X", ("x", "y")) == identity(2)
        assert parse_word("  y\tx X  Y x ", ("x", "y")) == W("x")

    def test_cancellation_matches_naive_oracle(self):
        rng = random.Random(16)
        names = ("x", "a", "b")
        for _ in range(300):
            raw = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(1, 14))]
            text = " ".join(names[g] if s == 1 else names[g].upper() for g, s in raw)
            assert parse_word(text, names).letters == naive_reduce(raw), text

    def test_names_given_as_a_string(self):
        assert parse_word("y X", "xy") == Word(2, ((1, 1), (0, -1)))
        assert parse_word("e", "xyz") == identity(3)

    def test_a_repeated_name_keeps_its_first_index(self):
        assert parse_word("a", ("b", "a", "a")) == Word(3, ((1, 1),))
        assert parse_word("A b", ("b", "a", "a")) == Word(3, ((1, -1), (0, 1)))
