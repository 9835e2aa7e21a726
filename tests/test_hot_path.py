"""The probe hot path against the record-building and stack-reducing oracles.

archimedean_key and sign read a word with a nonzero exponent sum off its
first one and build no LowestTerm; multiply, apply_map and substitution
cancel letters only at the seams between reduced words.  Each is checked
against the plain version in helpers, and the skipped lowest_term calls are
pinned.
"""

import random

import pytest

from biorder import cli, freegroup, magnus, orderprops
from biorder.corpus import corpus_entries
from biorder.freegroup import (FreeMap, RankMismatchError, apply_map, commutator,
                               identity, invert, iterate_map, letter, multiply,
                               parse_word, random_word, substitution)
from biorder.lcs import lyndon_basis
from biorder.magnus import (NoLowestTermError, archimedean_key, is_infinitesimal,
                            sign)
from biorder.orderprops import ProbeConfig, dominant_check, subgroup_probe
from helpers import (apply_map_by_stack, archimedean_key_by_lowest_term,
                     enumerate_words, random_word_by_stdlib, reduce,
                     sign_by_lowest_term, standard_bracketing)


def _check_key_and_sign(w):
    assert archimedean_key(w) == archimedean_key_by_lowest_term(w)
    assert sign(w) == sign_by_lowest_term(w)
    assert sign(invert(w)) == -sign(w)


class TestKeysAndSigns:
    def test_random_words_of_rank_1_to_5(self):
        rng = random.Random(36)
        first_sums = set()
        for _ in range(5000):
            w = random_word_by_stdlib(rng, rng.randint(1, 5), 12)
            _check_key_and_sign(w)
            if any(v := w.exponent_vector()):
                first_sums.add(next(i for i, e in enumerate(v) if e))
        assert first_sums == {0, 1, 2, 3, 4}  # the first nonzero sum sits anywhere

    def test_zero_sum_words_fall_back_to_lowest_term(self):
        rng = random.Random(37)
        words = [standard_bracketing(lw, rank) for rank in (2, 3) for k in (2, 3, 4)
                 for lw in lyndon_basis(rank, k)]
        for _ in range(500):
            rank = rng.randint(1, 4)
            u, v = (random_word(rng, rank, 6) for _ in range(2))
            words.append(commutator(u, v))
            words.append(commutator(commutator(u, v), letter(rank, rng.randrange(rank))))
        degrees = set()
        for w in words:
            if w.is_identity:
                continue
            assert not any(w.exponent_vector())
            _check_key_and_sign(w)
            degrees.add(archimedean_key(w)[0])
        assert {2, 3, 4} <= degrees

    def test_identity(self):
        for rank in (1, 3):
            with pytest.raises(NoLowestTermError):
                archimedean_key(identity(rank))
            assert sign(identity(rank)) == 0

    def test_probes_call_lowest_term_only_on_zero_sums(self, monkeypatch):
        lowest_calls, keyed = [], []
        real_lowest, real_key = magnus.lowest_term, orderprops.archimedean_key

        def counted_lowest(w):
            lowest_calls.append(w)
            return real_lowest(w)

        def recorded_key(w):
            keyed.append(w)
            return real_key(w)

        monkeypatch.setattr(magnus, "lowest_term", counted_lowest)
        monkeypatch.setattr(orderprops, "archimedean_key", recorded_key)
        x = letter(2, 0)
        cfg = ProbeConfig(seed=3, samples=40, max_word_length=8)
        subgroup_probe(x, cfg)
        dominant_check(x, cfg)
        assert lowest_calls == [w for w in keyed if not any(w.exponent_vector())]
        assert 0 < len(lowest_calls) < len(keyed) // 4


class TestSeamReduction:
    def test_corpus_maps_and_their_powers(self):
        words = list(enumerate_words(2, 3))
        rng = random.Random(38)
        for entry in corpus_entries():
            phi = entry.record.phi
            ws = words if phi.rank == 2 else list(enumerate_words(phi.rank, 2))
            ws += [random_word(rng, phi.rank, 10) for _ in range(50)]
            for n in range(-3, 4):
                phin = iterate_map(phi, n)
                for w in ws:
                    assert apply_map(phin, w) == apply_map_by_stack(phin, w)

    def test_substitution_of_corpus_map_powers(self):
        # substitution(phi) inverts each image once; negative letters, whose
        # inverted images meet the output, are in every word
        rng = random.Random(46)
        for entry in corpus_entries():
            phi = entry.record.phi
            words = []
            while len(words) < 300:
                w = random_word(rng, phi.rank, 12)
                if any(s == -1 for _, s in w.letters):
                    words.append(w)
            for n in range(-3, 4):
                phin = iterate_map(phi, n)
                image = substitution(phin)
                for w in words:
                    assert image(w) == apply_map(phin, w) == apply_map_by_stack(phin, w)
                with pytest.raises(RankMismatchError):
                    image(letter(phi.rank + 1, 0))

    def test_random_endomorphisms_with_cancelling_seams(self):
        rng = random.Random(39)
        seams = 0
        for _ in range(300):
            rank = rng.randint(1, 4)
            # x_0 ends in c and x_1 starts with c^-1 (x_0 x_1 cancels at the
            # seam); the images of negative letters meet inverted
            c = random_word(rng, rank, 3)
            images = [multiply(random_word(rng, rank, 4, allow_identity=True), c),
                      multiply(invert(c), random_word(rng, rank, 4, allow_identity=True))]
            images += [random_word(rng, rank, 5, allow_identity=True) for _ in range(rank)]
            phi = FreeMap(rank, tuple(images[:rank]))
            for w in [random_word(rng, rank, 12, allow_identity=True) for _ in range(10)]:
                image = apply_map(phi, w)
                assert image == apply_map_by_stack(phi, w)
                seams += len(image) < sum(len(phi.images[g]) for g, _ in w.letters)
        assert seams > 1000

    def test_multiply_matches_reduce_on_the_concatenation(self):
        rng = random.Random(40)
        cancelled = 0
        for _ in range(20000):
            rank = rng.randint(1, 4)
            a, b = (random_word(rng, rank, 8, allow_identity=True) for _ in range(2))
            product = multiply(a, b)
            assert product == reduce(rank, a.letters + b.letters)
            cancelled += len(product) < len(a) + len(b)
        assert cancelled > 3000

    def test_every_map_application_takes_the_prebuilt_inverse_images(self, monkeypatch, capsys):
        # _substitute is the one route of phi(w), and every caller hands it
        # the inverted images that substitution(phi) builds once
        calls = {}
        stage = None
        real = freegroup._substitute

        def recording(images, inverted, w):
            calls.setdefault(stage, []).append(inverted is not None)
            return real(images, inverted, w)

        monkeypatch.setattr(freegroup, "_substitute", recording)
        for entry in corpus_entries():
            name, phi = entry.record.name, entry.record.phi
            stage = "analyze"
            assert cli.main(["analyze", f"corpus:{name}"]) == 0
            for probe in ("order-preservation", "invariance", "semidirect"):
                stage = probe
                cli.main(["probe", probe, "--map", f"corpus:{name}", "--samples", "20"])
            stage = "iterate_map"
            powers = [iterate_map(phi, n) for n in range(-3, 4)]
            stage = "apply_map"
            for phin in powers:
                apply_map(phin, parse_word("X y x", "xyzw"[:phi.rank]))
        capsys.readouterr()
        assert set(calls) == {"analyze", "order-preservation", "invariance", "semidirect",
                              "iterate_map", "apply_map"}
        assert {s: all(flags) for s, flags in calls.items()} == dict.fromkeys(calls, True)


class TestRankMismatch:
    F = parse_word("x", "xy")
    G = parse_word("x", "xyz")

    def test_is_infinitesimal(self):
        with pytest.raises(RankMismatchError):
            is_infinitesimal(self.F, self.G)
        with pytest.raises(RankMismatchError):
            is_infinitesimal(self.G, self.F)

    def test_weak_comparability_search(self):
        with pytest.raises(RankMismatchError):
            orderprops.weak_comparability_search(self.F, self.G, ProbeConfig())
