import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from biorder import lcs
from biorder.corpus import CORPUS_NAMES, corpus_entry
from biorder.exactalg import IntMatrix, Poly, char_poly, factor_over_Q
from biorder.freegroup import (FreeMap, NotAnAutomorphismError,
                               apply_map, commutator, identity_map,
                               invert, letter, multiply, power, random_word,
                               verify_automorphism)
from biorder.lcs import (abelianized, lcs_action, level_pieces, lyndon_basis,
                         quotient_actions, witt_number, _lie_coordinates)
from biorder.magnus import expand, lowest_term
from helpers import (W, bareiss_det, basis_parts_by_fold, brandt_level_char_poly,
                     companion_map, count_real_roots, divmod_q, faddeev_leverrier_char_poly,
                     from_rows, identity_matrix, random_automorphism, standard_bracketing,
                     structure_by_scan, torus_monodromy)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLyndonBasis:
    def test_witt_numbers(self):
        assert witt_number(4, 1) == 4
        assert witt_number(4, 2) == 6
        assert witt_number(2, 3) == 2
        assert witt_number(2, 4) == 3
        assert witt_number(3, 3) == 8

    def test_degree_one_basis_is_generators(self):
        basis = lyndon_basis(4, 1)
        assert [standard_bracketing(lw, 4) for lw in basis] == [letter(4, g) for g in range(4)]

    def test_degree_two_basis_is_ordered_commutators(self):
        basis = lyndon_basis(4, 2)
        expected = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert list(basis) == expected
        for lw in basis:
            i, j = lw
            assert standard_bracketing(lw, 4) == commutator(letter(4, i), letter(4, j))

    def test_rank2_degree3_bracketings(self):
        basis = lyndon_basis(2, 3)
        x, y = letter(2, 0), letter(2, 1)
        assert list(basis) == [(0, 0, 1), (0, 1, 1)]
        assert standard_bracketing(basis[0], 2) == commutator(x, commutator(x, y))
        assert standard_bracketing(basis[1], 2) == commutator(commutator(x, y), y)

    def test_counts_match_witt_for_a_range(self):
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                assert len(lyndon_basis(n, k)) == witt_number(n, k)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            lyndon_basis(2, 5)
        with pytest.raises(ValueError):
            lyndon_basis(2, 0)

    def test_rank_below_one_is_refused_not_a_hang(self):
        # Duval's loop waits for a last letter n - 1, which no word over
        # {0..n-1} has when n < 1; run apart, so a regression fails by timeout
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
                "from biorder.lcs import lyndon_basis\n"
                "for n, k in ((0, 1), (0, 3), (-1, 2)):\n"
                "    try:\n"
                "        lyndon_basis(n, k)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        run = subprocess.run([sys.executable, "-I", "-c", code],
                             capture_output=True, text=True, timeout=30)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "rank 0 below 1\nrank 0 below 1\nrank -1 below 1\n"

    def test_standard_factorization_splits_before_longest_lyndon_suffix(self):
        """Every Lyndon word of lengths 2-8 over 2 letters and 2-6 over 3 and 4
        letters splits before its longest proper suffix that is strictly
        smaller than each of its proper rotations."""
        def is_lyndon(w):
            return all(w < w[i:] + w[:i] for i in range(1, len(w)))

        words = [w for n, top in ((2, 8), (3, 6), (4, 6)) for k in range(2, top + 1)
                 for w in itertools.product(range(n), repeat=k) if is_lyndon(w)]
        assert len(words) == 1222
        for w in words:
            i = next(i for i in range(1, len(w)) if is_lyndon(w[i:]))
            assert lcs._standard_factorization(w) == (w[:i], w[i:])

    def test_bracketings_have_unit_leading_monomial(self):
        # the Lyndon word itself is the lex-least monomial, with coefficient 1
        for n, k in ((2, 3), (3, 2), (2, 4)):
            for lw in lyndon_basis(n, k):
                part = expand(standard_bracketing(lw, n), k).homogeneous_part(k)
                assert part[lw] == 1
                assert all(m >= lw for m in part)


class TestAbelianization:
    def test_trefoil(self):
        phi = corpus_entry("trefoil").record.phi
        m = abelianized(phi)
        assert m == from_rows([[0, -1], [1, 1]])
        assert char_poly(m) == Poly([1, -1, 1])

    def test_figure8(self):
        phi = corpus_entry("figure8").record.phi
        m = abelianized(phi)
        assert m == from_rows([[2, 1], [1, 1]])
        assert char_poly(m) == Poly([1, -3, 1])

    def test_identity_rank4(self):
        assert abelianized(identity_map(4)) == identity_matrix(4)

    def test_equals_level_one_action(self):
        phi = corpus_entry("6_2").record.phi
        assert lcs_action(phi, 1).matrix == abelianized(phi)

    def test_level_one_is_m_itself(self):
        """quotient_actions returns the M it is given as level 1, not a copy
        rebuilt from its columns."""
        for name in CORPUS_NAMES:
            m = abelianized(corpus_entry(name).record.phi)
            for k in range(1, 5):
                assert quotient_actions(m, k)[0].matrix is m

    def test_corpus_determinants_are_units(self):
        for name in ("trefoil", "figure8", "6_2", "7_6"):
            phi = corpus_entry(name).record.phi
            assert abs(bareiss_det(abelianized(phi))) == 1


# level-1 action matrices in the columns-are-images convention, hand-checked
# against the bilinear bracket expansions of the corpus monodromies
N_6_2 = from_rows([
    [0, 0, 2, 0, -1, 0],
    [-1, 0, 2, 0, -1, 0],
    [0, -2, 2, 1, -1, 0],
    [0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [0, -1, 1, 1, -1, 1],
])
N_7_6 = from_rows([
    [2, -1, 0, -1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [1, -1, 1, -1, 1, 0],
    [0, 0, 1, 0, 3, -1],
    [1, -1, 1, -2, 3, -1],
    [0, 0, 0, 0, -1, 1],
])


class TestLcsAction:
    def test_identity_map_gives_identity_matrix(self):
        for k in (1, 2, 3):
            action = lcs_action(identity_map(2), k)
            assert action.matrix == identity_matrix(witt_number(2, k))

    def test_6_2_level1_matrix_and_char_poly(self):
        action = lcs_action(corpus_entry("6_2").record.phi, 2)
        assert action.matrix == N_6_2
        assert char_poly(action.matrix) == Poly([1, -3, 8, -12, 8, -3, 1])

    def test_6_2_action_rows(self):
        # the image of u = [x,a] is v^-1, the image of v = [x,b] is w^-2 z^-1
        phi = corpus_entry("6_2").record.phi
        action = lcs_action(phi, 2)
        basis = action.basis
        parts = [expand(standard_bracketing(lw, 4), 2).homogeneous_part(2) for lw in basis]

        def coords(word):
            return _lie_coordinates(expand(word, 2).homogeneous_part(2), basis, parts)

        u, v, w, z = (standard_bracketing(basis[i], 4) for i in (0, 1, 2, 5))
        col = lambda j: [action.matrix.rows[i][j] for i in range(6)]
        assert col(0) == coords(invert(v))
        assert col(1) == coords(multiply(power(w, -2), invert(z)))
        assert col(0) == coords(apply_map(phi, u))
        assert col(1) == coords(apply_map(phi, v))

    def test_7_6_level1_matrix_and_spectral_shape(self):
        action = lcs_action(corpus_entry("7_6").record.phi, 2)
        assert action.matrix == N_7_6
        p = char_poly(action.matrix)
        assert p(1) == 0
        assert p.derivative()(1) == 0
        quotient, rem = divmod_q(p, Poly([-1, 1]) ** 2)
        assert rem.is_zero
        assert count_real_roots(quotient) == 0

    def test_trefoil_and_figure8_level1_are_trivial(self):
        # rank 2 has a single basic commutator; both monodromies fix its class
        for name in ("trefoil", "figure8"):
            action = lcs_action(corpus_entry(name).record.phi, 2)
            assert action.matrix == from_rows([[1]])

    def test_rejects_non_automorphism(self):
        squaring = FreeMap(2, (W("x x"), W("y")))
        with pytest.raises(NotAnAutomorphismError):
            lcs_action(squaring, 2)

    def test_functoriality(self):
        rng = random.Random(41)
        from biorder.freegroup import compose
        for _ in range(50):
            phi = random_automorphism(rng, 3, steps=4)
            psi = random_automorphism(rng, 3, steps=4)
            for k in (1, 2):
                lhs = lcs_action(compose(phi, psi), k).matrix
                rhs = lcs_action(phi, k).matrix @ lcs_action(psi, k).matrix
                assert lhs == rhs

    def test_functoriality_at_every_level(self):
        # L_k(AB) = L_k(A) L_k(B) for all integer matrices, singular ones too;
        # levels 3 and 4 are built from levels 1 and 2 by the structure tables
        rng = random.Random(47)
        singular = 0
        for rank in (2, 3, 4):
            for trial in range(4):
                a, b = ([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
                        for _ in range(2))
                if trial % 2:
                    a[-1] = [2 * x for x in a[0]]
                a, b = from_rows(a), from_rows(b)
                singular += bareiss_det(a) == 0
                for k in (1, 2, 3, 4):
                    ab, a_k, b_k = (quotient_actions(x, k)[-1].matrix for x in (a @ b, a, b))
                    assert ab == a_k @ b_k
        assert singular >= 6

    def test_rank2_deeper_levels(self):
        trefoil = corpus_entry("trefoil").record.phi
        assert char_poly(lcs_action(trefoil, 3).matrix) == Poly([1, -1, 1])
        # the k=4 block t^2+t+1 has no positive real root, matching the
        # level-0 obstruction for the trefoil
        assert char_poly(lcs_action(trefoil, 4).matrix) == Poly([-1, 0, 0, 1])
        figure8 = corpus_entry("figure8").record.phi
        assert char_poly(lcs_action(figure8, 3).matrix) == Poly([1, -3, 1])
        assert char_poly(lcs_action(figure8, 4).matrix) == Poly([-1, 8, -8, 1])

    def test_rank4_degree3_action_shape(self):
        action = lcs_action(corpus_entry("6_2").record.phi, 3)
        assert action.matrix.dim == witt_number(4, 3) == 20
        cp = char_poly(action.matrix)
        assert cp.degree == 20
        assert abs(cp(0)) == 1  # induced by an automorphism, so |det| = 1

    def test_quotient_action_matches_word_route(self):
        # the action is read off M alone; the word route applies phi to every
        # basis bracket.  Endomorphisms that are not automorphisms count too.
        rng = random.Random(43)
        maps = [corpus_entry(name).record.phi for name in CORPUS_NAMES]
        maps.append(FreeMap(2, (W("x x"), W("y"))))
        for rank, count in ((2, 8), (3, 6), (4, 3)):
            for _ in range(count):
                maps.append(FreeMap(rank, tuple(
                    random_word(rng, rank, 3, allow_identity=True) for _ in range(rank))))
        for phi in maps:
            m = abelianized(phi)
            for k in (1, 2, 3, 4):
                assert quotient_actions(m, k)[-1].matrix == _action_with_flipped_bracket(phi, k)

    def test_basis_parts_built_once_per_rank_and_degree(self, monkeypatch):
        # each basis and split list is built once per (n, k), each structure
        # table once per (n, i, j), however many maps and levels ask for them
        built = []

        def counting_basis(n, k):
            built.append((n, k))
            return lyndon_basis(n, k)

        tables = (lcs._basis_parts, lcs._splits, lcs._structure)
        monkeypatch.setattr(lcs, "lyndon_basis", counting_basis)
        for table in tables:
            table.cache_clear()
        try:
            ms = [abelianized(corpus_entry(name).record.phi)
                  for name in ("6_2", "7_6", "trefoil")]
            first = [lcs.quotient_actions(m, 4) for m in ms]
            assert [lcs.quotient_actions(m, 4) for m in ms] == first
            assert [quotient_actions(m, 3)[-1] for m in ms] == [levels[2] for levels in first]
            assert sorted(built) == [(n, k) for n in (2, 4) for k in (1, 2, 3, 4)]
            pairs = {(n, i, k - i) for n in (2, 4) for k in (2, 3, 4)
                     for i, _, _ in lcs._splits(n, k)}
            assert len(pairs) == 11  # rank 2 splits no degree-4 word as (2, 2)
            assert [t.cache_info().misses for t in tables] == [8, 6, len(pairs)]
        finally:
            for table in tables:
                table.cache_clear()

    def test_basis_polynomials_match_magnus_expansion(self):
        # the bracket recursion against the degree-k part of the Magnus
        # expansion of each standard bracketing word
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                basis, parts = lcs._basis_parts(n, k)
                assert len(parts) == witt_number(n, k)
                for lw, part in zip(basis, parts):
                    word = standard_bracketing(lw, n)
                    assert part == expand(word, k).homogeneous_part(k)

    def test_char_poly_invariant_under_bracket_flips(self):
        phi = corpus_entry("6_2").record.phi
        reference = char_poly(lcs_action(phi, 2).matrix)
        for flip in range(6):
            assert char_poly(_action_with_flipped_bracket(phi, 2, flip)) == reference


class TestStructureConstants:
    """The tables [b_p, b_q] that the level recursion reads, against Lie
    identities and against the Magnus expansion of group commutators."""

    PAIRS = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i + j <= lcs.DEGREE_CAP]

    def test_tables_match_fold_and_scan(self):
        # each bracket from the cached parts of its factors, half of each
        # table from the other half, and elimination by least monomial,
        # against folding every word from its letters and eliminating
        # along the whole basis
        for n in (1, 2, 3, 4, 5):
            for k in range(1, lcs.DEGREE_CAP + 1):
                assert lcs._basis_parts(n, k) == basis_parts_by_fold(n, k), (n, k)
            for i, j in self.PAIRS:
                assert lcs._structure(n, i, j) == structure_by_scan(n, i, j), (n, i, j)

    def test_antisymmetric(self):
        for n in (2, 3, 4):
            for i, j in self.PAIRS:
                table, transpose = lcs._structure(n, i, j), lcs._structure(n, j, i)
                for p, row in enumerate(table):
                    for q, entries in enumerate(row):
                        assert entries == tuple((r, -c) for r, c in transpose[q][p])

    def test_jacobi_identity_at_degree_3(self):
        for n in (2, 3, 4):
            t11, t21 = lcs._structure(n, 1, 1), lcs._structure(n, 2, 1)

            def nested(a, b, c):
                """Coordinates of [[x_a, x_b], x_c]."""
                out = [0] * witt_number(n, 3)
                for r, s in t11[a][b]:
                    for t, c3 in t21[r][c]:
                        out[t] += s * c3
                return out

            triples = list(itertools.product(range(n), repeat=3))
            assert any(any(nested(*abc)) for abc in triples)
            for a, b, c in triples:
                terms = zip(nested(a, b, c), nested(b, c, a), nested(c, a, b))
                assert not any(sum(t) for t in terms), (n, a, b, c)

    def test_entries_match_magnus_expansion_of_commutators(self):
        # the degree-(i + j) part of the group commutator of two standard
        # bracketings is the bracket of their Lie polynomials
        for n in (2, 3):
            words = {k: [standard_bracketing(lw, n) for lw in lyndon_basis(n, k)]
                     for k in (1, 2, 3, 4)}
            parts = {k: [expand(w, k).homogeneous_part(k) for w in words[k]]
                     for k in (1, 2, 3, 4)}
            for i, j in self.PAIRS:
                k = i + j
                table = lcs._structure(n, i, j)
                for p, q in itertools.product(range(len(words[i])), range(len(words[j]))):
                    part = expand(commutator(words[i][p], words[j][q]), k).homogeneous_part(k)
                    coords = _lie_coordinates(part, lyndon_basis(n, k), parts[k])
                    assert table[p][q] == tuple((r, c) for r, c in enumerate(coords) if c)


class TestLevelCharPoly:
    """Level polynomials against Faddeev-LeVerrier on the printed matrix:
    level_pieces of the one block char(M), and the product of the pieces over
    char(M)'s factor blocks, which is what the analysis factors."""

    @staticmethod
    def check(phi):
        m = abelianized(phi)
        for k in (1, 2, 3, 4):
            expected = faddeev_leverrier_char_poly(quotient_actions(m, k)[-1].matrix)
            assert level_pieces([(char_poly(m), 1)], k) == [expected], (phi, k)
            assert math.prod(level_pieces(_blocks(m), k), start=Poly([1])) == expected, (phi, k)

    def test_corpus_matches_faddeev_leverrier_of_level_matrix(self):
        for name in CORPUS_NAMES:
            self.check(corpus_entry(name).record.phi)

    def test_random_automorphisms_match_faddeev_leverrier_of_level_matrix(self):
        # rank 4 at k = 4 is a 60x60 Faddeev-LeVerrier run (about 0.2 s), so
        # ranks 2 and 3 are drawn twice as often as rank 4
        rng = random.Random(71)
        for i in range(30):
            self.check(random_automorphism(rng, (2, 3, 2, 3, 4)[i % 5]))

    def test_identity_acts_trivially_on_every_level(self):
        for n in (2, 3, 4):
            for k in (1, 2, 3, 4):
                blocks = [(char_poly(identity_matrix(n)), 1)]
                assert level_pieces(blocks, k) == [Poly([-1, 1]) ** witt_number(n, k)]


def _blocks(m: IntMatrix) -> list[tuple[Poly, int]]:
    """The blocks f^e of char(M) = prod f^e, as (f, e) pairs."""
    return [(f.poly, f.multiplicity) for f in factor_over_Q(char_poly(m)).factors]


def _piece_maps() -> list[FreeMap]:
    """The corpus, the torus knots T(2, 3), T(2, 5) and T(3, 4) (ranks 2, 4
    and 6) and 300 seeded random automorphisms of rank 2-4."""
    rng = random.Random(103)
    return ([corpus_entry(name).record.phi for name in CORPUS_NAMES]
            + [torus_monodromy(p, q) for p, q in ((2, 3), (2, 5), (3, 4))]
            + [random_automorphism(rng, 2 + i % 3, rng.randint(1, 8)) for i in range(300)])


class TestLevelPieces:
    """char L_k(M) splits into one piece per composition of k over the blocks
    of char(M), each from the multigraded Brandt formula."""

    def test_product_of_pieces_is_the_level_polynomial(self):
        multi = repeated = 0
        for phi in _piece_maps():
            m = abelianized(phi)
            blocks = _blocks(m)
            for k in (1, 2, 3, 4):
                pieces = level_pieces(blocks, k)
                assert all(piece.degree > 0 for piece in pieces)
                assert (math.prod(pieces, start=Poly([1]))
                        == brandt_level_char_poly(m, k)), (phi, k)
            multi += len(blocks) >= 2
            repeated += any(e > 1 for _, e in blocks)
        assert multi >= 150 and repeated >= 30

    def test_pieces_at_rank_6_torus_knots(self):
        # rank 6, level polynomials up to degree 315; char(M) is Phi_14 for
        # T(2, 7), one block, and Phi_6 Phi_12 for T(3, 4)
        for p, q in ((2, 7), (3, 4)):
            m = abelianized(torus_monodromy(p, q))
            for k in (2, 3, 4):
                pieces = level_pieces(_blocks(m), k)
                assert len(pieces) == (1 if p == 2 else k + 1)
                assert (math.prod(pieces, start=Poly([1]))
                        == brandt_level_char_poly(m, k)), (p, q, k)

    def test_one_block_is_the_whole_level(self):
        m = abelianized(corpus_entry("6_2").record.phi)  # char(M) irreducible
        for k in (1, 2, 3, 4):
            assert level_pieces(_blocks(m), k) == [brandt_level_char_poly(m, k)]

    def test_pieces_give_the_report_of_the_level(self):
        for phi in _piece_maps():
            m = abelianized(phi)
            blocks = _blocks(m)
            for k in (2, 3, 4):
                whole = brandt_level_char_poly(m, k)
                assert (factor_over_Q(*level_pieces(blocks, k))
                        == factor_over_Q(whole)), (phi, k)

    def test_companion_maps_have_their_blocks(self):
        # no factoring: char(M) of a companion map is the product of its
        # blocks, and the rank-14 blocks' level-1 pieces give Brandt's polynomial
        rng = random.Random(41)
        for _ in range(30):
            blocks = [Poly([rng.choice((1, -1)), *(rng.randint(-3, 3) for _ in range(d - 1)), 1])
                      for d in (rng.randint(1, 4) for _ in range(rng.randint(1, 3)))]
            phi = companion_map(blocks)
            for case in (phi, FreeMap(phi.rank, phi.images)):
                assert verify_automorphism(case) is None, blocks
            assert char_poly(abelianized(phi)) == math.prod(blocks, start=Poly([1])), blocks
        blocks = [Poly([1, -8, -94, -48, 299, -48, -94, -8, 1]),
                  Poly([1, -320, 654, -320, 1]), Poly([-1, -3, 1])]
        phi = companion_map(blocks)
        for case in (phi, FreeMap(phi.rank, phi.images)):
            assert verify_automorphism(case) is None
        m = abelianized(phi)
        assert char_poly(m) == math.prod(blocks, start=Poly([1]))
        pieces = level_pieces([(f, 1) for f in blocks], 2)
        assert sorted(piece.degree for piece in pieces) == [1, 6, 8, 16, 28, 32]
        assert math.prod(pieces, start=Poly([1])) == brandt_level_char_poly(m, 2)

    def test_brandt_terms_have_nonzero_coefficients(self):
        # mu(d) = 0 terms are dropped, so each kept d is a squarefree divisor
        # of gcd c, and every squarefree divisor is kept
        for k in range(1, 5):
            for r in range(1, 5):
                for c in lcs._compositions(k, r):
                    terms = lcs._brandt_terms(c)
                    assert all(coeff for _, coeff, _ in terms), c
                    g = math.gcd(*c)
                    assert [d for d, _, _ in terms] == [
                        d for d in range(1, g + 1)
                        if g % d == 0 and all(d % (q * q) for q in range(2, d + 1))], c

    def test_power_sums_sized_by_the_kept_terms(self, monkeypatch):
        # level 3 (k = 4) of one quartic block: 60 traces, d in {1, 2}, so
        # p_1..p_120; and two quadratic blocks read up to degree 2 L_(2,2)
        counts, power_sums = [], lcs.power_sums
        monkeypatch.setattr(lcs, "power_sums",
                            lambda f, count: counts.append(count) or power_sums(f, count))
        quartic = Poly([1, -3, 3, -3, 1])
        assert level_pieces([(quartic, 1)], 4) == [brandt_level_char_poly(
            abelianized(corpus_entry("6_2").record.phi), 4)]
        assert counts == [120]
        counts.clear()
        blocks = [(Poly([-1, -3, 1]), 1), (Poly([1, -3, 1]), 1)]
        pieces = level_pieces(blocks, 4)
        assert counts == [2 * next(lcs._lie_traces([[2], [2]], (2, 2)))] * 2
        m = abelianized(companion_map([f for f, _ in blocks]))
        assert math.prod(pieces, start=Poly([1])) == brandt_level_char_poly(m, 4)

    def test_pieces_report_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for phi in _piece_maps()[::15]:
            m = abelianized(phi)
            for k in (2, 3):
                whole = brandt_level_char_poly(m, k)
                report = factor_over_Q(*level_pieces(_blocks(m), k))
                _, expected = sympy.Poly(list(reversed(whole.coeffs)), t).factor_list()
                expected = [(Poly(reversed(f.all_coeffs())).canonical(), e) for f, e in expected]
                assert sorted((f.poly.key(), f.multiplicity) for f in report.factors) == sorted(
                    (f.key(), e) for f, e in expected), (phi, k)


def test_trivial_quotient_is_named():
    # rank 1 has Witt number 0 at every degree k >= 2
    for k in (2, 3, 4):
        with pytest.raises(ValueError, match=r"gamma_2 / gamma_3 is trivial at rank 1 "
                                             r"\(Witt number 0\)"):
            quotient_actions(IntMatrix(((1,),)), k)
    with pytest.raises(ValueError, match="Witt number 0"):
        lcs_action(identity_map(1), 2)
    assert [a.matrix for a in quotient_actions(IntMatrix(((-1,),)), 1)] == [IntMatrix(((-1,),))]


def _action_with_flipped_bracket(phi, k, flip_index=None) -> IntMatrix:
    """Recompute the quotient action from the images of the basis brackets,
    with the bracket at flip_index inverted when one is given."""
    basis = lyndon_basis(phi.rank, k)
    brackets = [standard_bracketing(lw, phi.rank) for lw in basis]
    if flip_index is not None:
        brackets[flip_index] = invert(brackets[flip_index])
    parts = [expand(b, k).homogeneous_part(k) for b in brackets]
    leads = [-1 if i == flip_index else 1 for i in range(len(brackets))]
    columns = []
    for b in brackets:
        image = expand(apply_map(phi, b), k)
        assert all(not 0 < len(m) < k for m in image.coeffs), "part below degree k"
        residue = dict(image.homogeneous_part(k))
        coords = []
        for lw, part, lead in zip(basis, parts, leads):
            c = residue.get(lw, 0) * lead
            coords.append(c)
            if c:
                for m, val in part.items():
                    nv = residue.get(m, 0) - c * val
                    if nv:
                        residue[m] = nv
                    elif m in residue:
                        del residue[m]
        assert not residue
        columns.append(coords)
    d = len(columns)
    return from_rows([[columns[j][i] for j in range(d)] for i in range(d)])


def test_lowest_terms_are_lie_elements():
    """The lowest homogeneous part of a word in gamma_d is an integral Lie
    element of degree d (Magnus; Reutenauer, Free Lie Algebras, 1993), so the
    Lyndon-basis elimination of lcs leaves no remainder on any lowest term
    that magnus finds."""
    rng = random.Random(61)
    degrees = Counter()
    while sum(degrees.values()) < 400:
        rank = rng.randint(2, 4)
        u, v, w = (random_word(rng, rank, 5) for _ in range(3))
        c = commutator(u, v) if rng.random() < 0.5 else commutator(commutator(u, v), w)
        if c.is_identity or (lt := lowest_term(c)).degree > 4:
            continue
        basis, basis_parts = lcs._basis_parts(rank, lt.degree)
        assert any(_lie_coordinates(dict(lt.part), basis, basis_parts)), c
        degrees[lt.degree] += 1
    assert set(degrees) == {2, 3, 4}
