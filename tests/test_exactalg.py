import decimal
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from biorder import exactalg
from biorder.corpus import corpus_entries
from biorder.exactalg import (IntMatrix, NonSquarefreeError, Poly, SturmChain,
                              ZeroPolynomialError, _distinct_degree,
                              _divmod_mod, _equal_degree, _gcd_mod, _gcdex_mod,
                              _divide_linear, _hensel_lift, _monic_mod,
                              _odd_primes, _pow_mod, all_roots_positive_real,
                              char_poly, factor_over_Q, has_positive_real_root,
                              power_sums, rational_roots,
                              squarefree_decomposition, squarefree_part,
                              sturm_count)
from biorder.lcs import abelianized, level_pieces
from biorder.presentation import KnotRecord
from biorder.verdict import analyze
from helpers import (A4_UNIT_QUARTICS, _gfp_divmod, bareiss_det, brandt_level_char_poly,
                     cofactor_char_poly, companion_map, count_negative_roots,
                     count_positive_roots, count_real_roots, divmod_q,
                     explicit_power_traces, faddeev_leverrier_char_poly, from_rows,
                     identity_matrix, irreducible_by_degree_patterns, random_automorphism,
                     random_matrix, random_unimodular_matrix, reconstruct,
                     root_counts_by_sturm_chain, synthetic_division,
                     unit_root_multiplicities_by_division)

# corpus abelianization matrices (columns are generator images)
M_6_2 = from_rows([[2, -1, 0, 0], [0, 0, 0, 1], [1, -1, 0, 1], [0, 0, -1, 1]])
M_7_6 = from_rows([[1, 1, 0, 0], [1, 3, -1, 0], [0, 0, 0, 1], [0, 1, -1, 1]])
M_TREFOIL = from_rows([[0, -1], [1, 1]])
M_FIGURE8 = from_rows([[2, 1], [1, 1]])

QUARTIC_6_2 = Poly([1, -3, 3, -3, 1])
QUARTIC_7_6 = Poly([1, -5, 7, -5, 1])
SEXTIC_6_2 = Poly([1, -3, 8, -12, 8, -3, 1])


class TestCharPoly:
    def test_6_2_level0(self):
        assert char_poly(M_6_2) == QUARTIC_6_2

    def test_7_6_level0(self):
        assert char_poly(M_7_6) == QUARTIC_7_6

    def test_identity_3x3(self):
        assert char_poly(identity_matrix(3)) == Poly([-1, 3, -3, 1])

    def test_against_cofactor_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            d = rng.randint(1, 5)
            m = random_matrix(rng, d)
            assert char_poly(m) == cofactor_char_poly(m)

    def test_against_faddeev_leverrier_oracle(self):
        rng = random.Random(34)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 12))
            assert char_poly(m) == faddeev_leverrier_char_poly(m)

    def test_against_sympy_beyond_cofactor_reach(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(35)
        for d in range(6, 13):
            m = random_matrix(rng, d)
            expected = [int(c) for c in sympy.Matrix(m.rows).charpoly().all_coeffs()]
            assert char_poly(m) == Poly(reversed(expected))

    def test_products_stop_at_half_the_dimension(self, monkeypatch):
        rng = random.Random(36)
        matmul = IntMatrix.__matmul__
        products = []
        monkeypatch.setattr(IntMatrix, "__matmul__",
                            lambda a, b: products.append(a.dim) or matmul(a, b))
        for d in range(1, 10):
            products.clear()
            m = random_matrix(rng, d)
            assert char_poly(m) == faddeev_leverrier_char_poly(m)
            assert products == [d] * ((d + 1) // 2 - 1), d

    def test_determinant_consistency(self):
        rng = random.Random(32)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4))
            cp = char_poly(m)
            assert cp(0) == (-1) ** m.dim * bareiss_det(m)


class TestPowerTraces:
    """tr(A^e) is p_e of char(A)'s roots, past A^n too (Cayley-Hamilton):
    power_sums of char_poly must equal the trace of every explicit power,
    as far as level 3 reads them (240 at rank 4)."""

    def test_unimodular_matrices_match_explicit_powers(self):
        rng = random.Random(37)
        matrices = [abelianized(entry.record.phi) for entry in corpus_entries()]
        matrices += [random_unimodular_matrix(rng, d) for d in (2, 3, 4, 5) for _ in range(3)]
        for m in matrices:
            assert power_sums(char_poly(m), 240) == explicit_power_traces(m, 240), m

    def test_any_matrix_and_count_matches_explicit_powers(self):
        rng = random.Random(38)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5))
            count = rng.randint(0, 12)
            assert power_sums(char_poly(m), count) == explicit_power_traces(m, count), (m, count)


class TestPowerSums:
    """power_sums reads a monic polynomial's power sums off its coefficients."""

    def test_char_poly_sums_are_the_traces(self):
        rng = random.Random(39)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5))
            count = rng.randint(0, 30)
            assert power_sums(char_poly(m), count) == explicit_power_traces(m, count), m

    def test_blocks_of_char_m_add_up_to_the_traces(self):
        # char(M) = prod f_i^(e_i), so sum_i e_i p_j(f_i) = tr(M^j)
        rng = random.Random(40)
        matrices = [abelianized(entry.record.phi) for entry in corpus_entries()]
        matrices += [abelianized(random_automorphism(rng, 2 + i % 3)) for i in range(60)]
        repeated = 0
        for m in matrices:
            blocks = factor_over_Q(char_poly(m)).factors
            sums = [[f.multiplicity * x for x in power_sums(f.poly, 40)] for f in blocks]
            assert [sum(col) for col in zip(*sums)] == explicit_power_traces(m, 40), m
            repeated += any(f.multiplicity > 1 for f in blocks)
        assert repeated >= 10

    def test_needs_a_monic_polynomial(self):
        for p in (Poly(), Poly([1, 2]), Poly([1, -1])):
            with pytest.raises(ValueError):
                power_sums(p, 3)


class TestPolyConstructor:
    def test_trailing_zeros_are_stripped_from_any_iterable(self):
        given = [3, 0, -2, 0, 0]
        for coeffs in (given, tuple(given), (c for c in given)):
            assert Poly(coeffs).coeffs == (3, 0, -2)
        assert given == [3, 0, -2, 0, 0]
        for zeros in ([], [0], (0, 0), (c for c in [0, 0, 0])):
            assert Poly(zeros).coeffs == ()

    def test_the_callers_list_stays_its_own(self):
        given = [1, 2, 0]
        p = Poly(given)
        given[0] = 5
        assert p.coeffs == (1, 2)


class TestPolyDivmod:
    def test_exact_linear_division(self):
        q, r = divmod_q(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert (q, r) == (Poly([1, 1]), Poly())

    def test_sextic_by_linear_matches_synthetic_division(self):
        q, r = divmod_q(SEXTIC_6_2, Poly([-1, 1]))
        desc, rem = synthetic_division(list(reversed(SEXTIC_6_2.coeffs)), 1)
        assert rem == 0 and r.is_zero
        assert q == Poly(list(reversed(desc)))
        assert q == Poly([-1, 2, -6, 6, -2, 1])

    def test_remainder(self):
        q, r = divmod_q(Poly([1, 0, 1]), Poly([0, 1]))
        assert (q, r) == (Poly([0, 1]), Poly([1]))

    def test_division_by_zero(self):
        with pytest.raises(ZeroPolynomialError):
            divmod_q(Poly([1]), Poly())

    def test_divmod_identity_on_random_pairs(self):
        rng = random.Random(33)
        for _ in range(200):
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))])
            q = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            if q.is_zero:
                continue
            quo, rem = divmod_q(p, q)
            assert quo * q + rem == p
            assert rem.degree < max(q.degree, 0) or rem.is_zero


class TestSquarefree:
    def test_planted_double_root(self):
        quartic = Poly([1, -1, 5, -1, 1])
        p = Poly([-1, 1]) ** 2 * quartic
        assert squarefree_decomposition(p) == [(quartic, 1), (Poly([-1, 1]), 2)]

    def test_already_squarefree(self):
        p = Poly([1, -3, 1])
        assert squarefree_decomposition(p) == [(p, 1)]

    def test_pure_power(self):
        assert squarefree_decomposition(Poly([0, 0, 0, 1])) == [(Poly([0, 1]), 3)]

    def test_round_trip_on_random_products(self):
        rng = random.Random(34)
        for _ in range(100):
            p = Poly([1])
            for _ in range(rng.randint(1, 3)):
                f = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
                p = p * f ** rng.randint(1, 3)
            if p.degree < 1:
                continue
            rebuilt = Poly([1])
            for factor, mult in squarefree_decomposition(p):
                rebuilt = rebuilt * factor ** mult
            assert rebuilt.canonical() == p.canonical()


def _no_monic_quadratic_factor(p: Poly) -> bool:
    """Exhaustive search for an integer monic quadratic factor of a monic
    quartic; root bounds keep the search window complete."""
    assert p.degree == 4 and p.leading == 1
    s = p.coeffs[0]
    bound_a = 2 * (1 + max(abs(c) for c in p.coeffs))
    for b in range(-abs(s), abs(s) + 1):
        if b == 0 or s % b:
            continue
        d = s // b
        for a in range(-bound_a, bound_a + 1):
            c = p.coeffs[3] - a
            if b + d + a * c == p.coeffs[2] and a * d + b * c == p.coeffs[1]:
                return False
    return True


class TestFactorOverQ:
    def test_6_2_sextic(self):
        report = factor_over_Q(SEXTIC_6_2)
        quartic = Poly([1, -1, 5, -1, 1])
        assert [(f.poly, f.multiplicity) for f in report.factors] == [
            (Poly([-1, 1]), 2), (quartic, 1)]
        assert [f.positive_real_roots for f in report.factors] == [1, 0]
        assert [f.real_roots for f in report.factors] == [1, 0]
        assert reconstruct(report) == SEXTIC_6_2
        # independent re-derivation of the quartic: divide out (x-1) twice
        step1, rem1 = synthetic_division(list(reversed(SEXTIC_6_2.coeffs)), 1)
        step2, rem2 = synthetic_division(step1, 1)
        assert rem1 == 0 and rem2 == 0
        assert Poly(list(reversed(step2))) == quartic

    def test_palindromic_quartic_irreducible(self):
        report = factor_over_Q(QUARTIC_6_2)
        assert [(f.poly, f.multiplicity) for f in report.factors] == [(QUARTIC_6_2, 1)]
        assert rational_roots(QUARTIC_6_2) == []
        assert _no_monic_quadratic_factor(QUARTIC_6_2)

    def test_residual_quartic_irreducible(self):
        quartic = Poly([1, -1, 5, -1, 1])
        report = factor_over_Q(quartic)
        assert [(f.poly, f.multiplicity) for f in report.factors] == [(quartic, 1)]
        assert rational_roots(quartic) == []
        assert _no_monic_quadratic_factor(quartic)

    def test_difference_of_squares(self):
        report = factor_over_Q(Poly([-1, 0, 1]))
        assert [(f.poly, f.multiplicity) for f in report.factors] == [
            (Poly([-1, 1]), 1), (Poly([1, 1]), 1)]

    def test_known_quadratic_split(self):
        p = Poly([-2, 0, 1]) * Poly([-3, 0, 1])  # (x^2-2)(x^2-3)
        report = factor_over_Q(p)
        assert [(f.poly, f.multiplicity) for f in report.factors] == [
            (Poly([-3, 0, 1]), 1), (Poly([-2, 0, 1]), 1)]

    def test_content_and_sign_recovered(self):
        p = Poly([-4, 4]) * Poly([6, -2])  # content -8, roots 1 and 3
        report = factor_over_Q(p)
        assert report.content == Fraction(-8)
        assert reconstruct(report) == p

    def test_reconstruction_on_random_inputs(self):
        rng = random.Random(35)
        saw_root_at_zero = False
        for _ in range(120):
            p = Poly([rng.randint(-8, 8) for _ in range(rng.randint(2, 7))])
            if p.is_zero or p.degree < 1:
                continue
            report = factor_over_Q(p)
            assert reconstruct(report) == p
            for f in report.factors:
                assert f.poly.leading > 0
                assert f.poly.content() == 1
                if 1 < f.poly.degree <= 3:
                    # an irreducible cubic or quadratic has no rational root
                    assert rational_roots(f.poly) == []
                # one chain per factor agrees with one chain per interval
                assert (f.positive_real_roots, f.negative_real_roots, f.real_roots) == (
                    count_positive_roots(f.poly), count_negative_roots(f.poly),
                    count_real_roots(f.poly))
                saw_root_at_zero = saw_root_at_zero or f.poly == Poly([0, 1])
        assert saw_root_at_zero

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            factor_over_Q(Poly())

    def test_splits_mod_every_prime_but_irreducible(self):
        # x^4 + 1 factors modulo every prime; recombination must reject all
        # proper subsets of the lifted factors
        p = Poly([1, 0, 0, 0, 1])
        assert [(f.poly, f.multiplicity) for f in factor_over_Q(p).factors] == [(p, 1)]

    def test_degree_eight_with_four_quadratic_factors(self):
        p = Poly([-16, 0, 0, 0, 0, 0, 0, 0, 1])  # x^8 - 16
        report = factor_over_Q(p)
        assert [f.poly for f in report.factors] == [
            Poly([-2, 0, 1]), Poly([2, -2, 1]), Poly([2, 0, 1]), Poly([2, 2, 1])]
        assert reconstruct(report) == p

    def test_input_singular_modulo_many_small_primes(self):
        # t^2 - D with D = 3 * 5 * ... * 127 is a square mod each of these
        # primes, so the first prime usable for the modular factorization is 131
        d = math.prod(p for p in range(3, 128, 2)
                      if all(p % q for q in range(3, p, 2)))
        report = factor_over_Q(Poly([-d, 0, 1]))
        assert [(f.poly, f.multiplicity) for f in report.factors] == [(Poly([-d, 0, 1]), 1)]
        f = report.factors[0]
        assert (f.positive_real_roots, f.negative_real_roots, f.real_roots) == (1, 1, 2)

    def test_non_monic_split(self):
        report = factor_over_Q(Poly([-1, 1, 6]))  # (3x - 1)(2x + 1)
        assert [f.poly for f in report.factors] == [Poly([-1, 3]), Poly([1, 2])]

    def test_product_of_corpus_quartics_separates(self):
        p = QUARTIC_6_2 * Poly([1, -1, 5, -1, 1])
        report = factor_over_Q(p)
        assert sorted(f.poly.coeffs for f in report.factors) == [
            (1, -3, 3, -3, 1), (1, -1, 5, -1, 1)]

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            Poly([1, 0, 1]).exact_div(Poly([-1, 1]))


def _trial_division_factors(f, p):
    """Monic irreducible factors of a monic f in GF(p)[x], with repeats.

    Trial division by every monic polynomial of degree <= deg(f)/2, lowest
    degree first, so a divisor found has no factor of lower degree left.
    """
    found = []
    d = 1
    while 2 * d <= len(f) - 1:
        for low in itertools.product(range(p), repeat=d):
            q = low + (1,)
            quo, rem = _gfp_divmod(f, q, p)
            while not rem:
                found.append(q)
                f = tuple(quo)
                quo, rem = _gfp_divmod(f, q, p)
        d += 1
    if len(f) > 1:
        found.append(f)
    return sorted(found, key=lambda u: (len(u), u))


class TestModularFactoring:
    def test_splitting_matches_trial_division(self):
        rng = random.Random(61)
        cases = equal_degree_splits = 0
        for p in (3, 5, 7, 11):
            for _ in range(70):
                f = tuple(rng.randrange(p) for _ in range(rng.randint(1, 7))) + (1,)
                expected = _trial_division_factors(f, p)
                if len(set(expected)) < len(expected):
                    continue  # not squarefree
                for seed in (0, 1):
                    parts = _distinct_degree(Poly(f), p)
                    assert all(g.degree % d == 0 for g, d in parts)
                    got = [u for g, d in parts
                           for u in _equal_degree(g, d, p, random.Random(seed))]
                    assert sorted(got, key=Poly.key) == [Poly(u) for u in expected], (f, p)
                cases += 1
                equal_degree_splits += any(g.degree > d for g, d in parts)
        assert cases >= 200 and equal_degree_splits >= 50

    def test_factor_over_q_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(67)
        inputs = [Poly([s] + [0] * (n - 1) + [1]) for n in range(1, 61) for s in (1, -1)]
        for _ in range(60):
            p = Poly([rng.choice((1, -1, 2, 3))])
            for _ in range(rng.randint(2, 6)):
                low = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                p = p * Poly(low + [rng.choice((1, 1, 2))])
            inputs.append(p)
        for p in inputs:
            _, expected = sympy.Poly(list(reversed(p.coeffs)), t).factor_list()
            expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m)
                        for f, m in expected]
            got = [(f.poly.coeffs, f.multiplicity) for f in factor_over_Q(p).factors]
            assert sorted(got) == sorted(expected), p


def _mul_by_hand(a: Poly, b: Poly, m: int) -> tuple:
    """Coefficients of a*b mod m: the convolution, each entry reduced."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + u * v) % m
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _sub_by_hand(a: Poly, b: Poly, m: int) -> tuple:
    """Coefficients of a - b mod m, position by position."""
    n = max(len(a.coeffs), len(b.coeffs))
    x, y = a.coeffs + (0,) * n, b.coeffs + (0,) * n
    out = [(x[i] - y[i]) % m for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestModKernels:
    """Poly arithmetic followed by `% m`, and the division, gcd, extended gcd
    and powers of (Z/m)[x], at prime and prime-power m."""

    PRIMES = (2, 3, 5, 7, 11, 101)
    MODULI = PRIMES + (4, 9, 25, 27, 3 ** 7, 11 ** 3)

    @staticmethod
    def _poly(rng, m, length):
        """Coefficients in [-m, 2m), so inputs need not be reduced."""
        return Poly([rng.randrange(-m, 2 * m) for _ in range(length)])

    def test_mul_and_sub_match_coefficientwise(self):
        rng = random.Random(101)
        for m in self.MODULI:
            for _ in range(40):
                a = self._poly(rng, m, rng.randint(0, 7))
                b = self._poly(rng, m, rng.randint(0, 7))
                assert ((a * b) % m).coeffs == _mul_by_hand(a, b, m), (a, b, m)
                assert ((a - b) % m).coeffs == _sub_by_hand(a, b, m), (a, b, m)

    def test_division_identity(self):
        rng = random.Random(103)
        for m in self.MODULI:
            for _ in range(40):
                a = self._poly(rng, m, rng.randint(0, 9))
                lead = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
                b = Poly([rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 4))] + [lead])
                q, r = _divmod_mod(a, b, m)
                assert (a - q * b - r) % m == Poly(), (a, b, m)
                assert r.degree < b.degree, (a, b, m)
                assert all(0 <= c < m for c in q.coeffs + r.coeffs), (a, b, m)

    def test_extended_gcd_identity(self):
        rng = random.Random(107)
        for p in self.PRIMES:
            for _ in range(40):
                common = self._poly(rng, p, rng.randint(1, 3))
                a = common * self._poly(rng, p, rng.randint(1, 5)) % p
                b = common * self._poly(rng, p, rng.randint(1, 5)) % p
                if b == Poly():
                    continue
                s, t, g = _gcdex_mod(a, b, p)
                assert (s * a + t * b - g) % p == Poly(), (a, b, p)
                assert g.leading == 1 and g == _gcd_mod(a, b, p), (a, b, p)
                assert _divmod_mod(a, g, p)[1] == _divmod_mod(b, g, p)[1] == Poly()

    def test_monic_and_pow_mod(self):
        rng = random.Random(109)
        for p in self.PRIMES:
            for _ in range(20):
                g = self._poly(rng, p, rng.randint(2, 5))
                if g.degree < 1 or g.leading % p == 0:
                    continue
                monic = _monic_mod(g, p)
                assert monic.leading == 1 and (monic * g.leading - g) % p == Poly()
                a, n = self._poly(rng, p, rng.randint(0, 6)), rng.randint(0, 12)
                assert _pow_mod(a, n, monic, p) == _divmod_mod(a ** n, monic, p)[1]


X_MINUS_1, X_PLUS_1 = Poly([-1, 1]), Poly([1, 1])
# Cofactors g of (x - 1)^a (x + 1)^b.  Unit ones have leading and constant
# coefficient +-1, so no rational root once x -+ 1 is divided off.  Those in
# UNIT_SMALL_PARTS have squarefree parts of degree <= 3 only (the last one is
# of degree 8, with parts of degrees 2 and 3); two of UNIT_QUARTICS are
# reducible.  The non-unit ones have rational roots other than +-1, a root
# at 0, or two quadratic factors.
UNIT_SMALL_PARTS = (
    Poly([1]),
    Poly([1, 1, 1]),                          # x^2 + x + 1
    Poly([1, -3, 1]),                         # x^2 - 3x + 1, two real roots
    Poly([-1, -1, 0, 1]),                     # x^3 - x - 1
    Poly([1, 0, -1, 1]),                      # x^3 - x^2 + 1
    Poly([1, 0, 1]) ** 2,                     # (x^2 + 1)^2
    Poly([1, 1, 1]) * Poly([-1, -1, 0, 1]) ** 2,
)
UNIT_QUARTICS = (
    Poly([1, 0, 1, 0, 1]),                    # (x^2 + x + 1)(x^2 - x + 1)
    Poly([1, -3, 1]) * Poly([1, 0, 1]),       # two real and two complex roots
    QUARTIC_6_2,                              # irreducible
)
NON_UNIT_COFACTORS = (
    Poly([-1, 2]) * Poly([1, 1, 1]),          # (2x - 1)(x^2 + x + 1)
    Poly([0, 1]) * Poly([1, 1, 1]),           # x (x^2 + x + 1)
    Poly([0, 0, 1]) * Poly([1, 1]),           # x^2 (x + 1)
    Poly([-2, 1]) * Poly([1, 0, 1]),          # (x - 2)(x^2 + 1)
    Poly([2, 1]) ** 2 * Poly([1, 3]),         # (x + 2)^2 (3x + 1)
    Poly([3, 0, 2]),                          # 2x^2 + 3, irreducible
    Poly([-4, 0, 0, 0, 1]),                   # (x^2 - 2)(x^2 + 2)
    Poly([1, 1, 1]) * Poly([-1, 0, 2]) * -6,  # content -6
)


def test_divide_linear_matches_synthetic_division():
    rng = random.Random(91)
    for _ in range(200):
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 12))] + [rng.randint(1, 9)])
        for root in (1, -1):
            quotient, remainder = _divide_linear(f, root)
            expected, rest = synthetic_division(list(reversed(f.coeffs)), root)
            assert (quotient, remainder) == (Poly(reversed(expected)), rest), (f, root)
            assert quotient * Poly([-root, 1]) + Poly([remainder]) == f


def test_unit_root_multiplicities_match_division():
    """_factor_canonical divides by x - 1 and x + 1 only while f(1), the
    coefficient sum, or f(-1), the alternating sum, is zero: the
    multiplicities that dividing until a remainder gives, large coefficients
    included."""
    rng = random.Random(117)
    beyond_planted = 0
    for _ in range(1000):
        height = rng.choice((3, 9, 2 ** 20, 2 ** 70))
        g = Poly([rng.randint(-height, height) for _ in range(rng.randint(0, 6))]
                 + [rng.randint(1, height)])
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        f = (X_MINUS_1 ** i * X_PLUS_1 ** j * g).canonical()
        expected = unit_root_multiplicities_by_division(f)
        factors = exactalg._factor_canonical(f, {})
        got = dict(factors)
        assert (got.get(X_MINUS_1, 0), got.get(X_PLUS_1, 0)) == expected, f
        assert math.prod((irr ** m for irr, m in factors), start=Poly([1])) == f
        beyond_planted += expected != (i, j)
    assert beyond_planted >= 50  # some cofactors g have g(1) = 0 or g(-1) = 0


def _counts_or_refusal(count, p):
    """count(p), or None when it raises NonSquarefreeError."""
    try:
        return count(p)
    except NonSquarefreeError:
        return None


class TestClosedFormRootCounts:
    """_root_counts reads the counts of a factor of degree <= 3 off the sign
    of its discriminant and Descartes' rule of signs, with no Sturm chain."""

    LINEAR = [Poly([b, a]) for a in range(-9, 10) if a for b in range(-9, 10)]

    def test_matches_the_sturm_chain_and_builds_none(self, monkeypatch):
        # every polynomial of degree 1-3 with coefficients in [-6, 6]
        cases = [Poly(cs) for n in (2, 3, 4) for cs in itertools.product(range(-6, 7), repeat=n)
                 if cs[-1]]

        def refuse(cls, p):
            raise AssertionError(f"Sturm chain built for {p}")

        monkeypatch.setattr(SturmChain, "build", classmethod(refuse))
        got = [_counts_or_refusal(exactalg._root_counts, p) for p in cases]
        monkeypatch.undo()
        kinds = Counter()
        for p, counts in zip(cases, got):
            assert counts == _counts_or_refusal(root_counts_by_sturm_chain, p), p
            if counts is not None:
                assert all(type(c) is int for c in counts), p  # a bool would print as True
            kinds[p.degree, counts] += 1
        # every real-root count of each degree, each sign, roots at 0, and
        # refusals at degrees 2 and 3
        assert {(d, c[2]) for d, c in kinds if c} == {(1, 1), (2, 0), (2, 2), (3, 1), (3, 3)}
        for degree in (1, 3):
            assert {c[:2] for d, c in kinds if d == degree and c and c[2] == 1} == {
                (1, 0), (0, 1), (0, 0)}
        assert {c for d, c in kinds if d == 3 and c and c[2] == 3} >= {
            (3, 0, 3), (2, 1, 3), (1, 2, 3), (0, 3, 3), (1, 1, 3)}
        assert kinds[2, None] > 0 and kinds[3, None] > 0

    def test_matches_sympy(self):
        """The linear grid, then 300 seeded quadratics and cubics, many with
        coefficients near 2^70."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(127)
        big = 2 ** 70
        cases = list(self.LINEAR)
        for i in range(300):
            degree = 2 + i % 2
            if i % 3 == 0:  # coefficients near +-2^70 or small
                cs = [rng.choice((1, -1)) * (big + rng.randint(-9, 9)) if rng.random() < 0.6
                      else rng.randint(-6, 6) for _ in range(degree + 1)]
                cases.append(Poly(cs[:-1] + [cs[-1] or 1]))
            elif i % 3 == 1:  # real roots near +-2^70, some close or repeated
                roots = [rng.choice((1, -1)) * big + rng.randint(-2, 2) if rng.random() < 0.7
                         else rng.randint(-3, 3) for _ in range(degree)]
                cases.append(math.prod((Poly([-r, 1]) for r in roots),
                                       start=Poly([rng.randint(1, 3)])))
            else:  # a near-double root 2^35 + k, nudged by a small constant
                r = 2 ** 35 + rng.randint(-3, 3)
                p = Poly([r * r, -2 * r, 1]) * Poly([rng.randint(-3, 3), 1]) ** (degree - 2)
                cases.append(p + Poly([rng.randint(-2, 2)]))
        kinds, refused = Counter(), 0
        for p in cases:
            expected = sympy.Poly(list(reversed(p.coeffs)), t)
            if expected.discriminant() == 0:
                with pytest.raises(NonSquarefreeError):
                    exactalg._root_counts(p)
                refused += 1
                continue
            roots = sympy.real_roots(expected)
            counts = exactalg._root_counts(p)
            assert counts == (sum(1 for r in roots if r > 0), sum(1 for r in roots if r < 0),
                              len(roots)), p
            kinds[p.degree, counts[2], max(abs(c) for c in p.coeffs) > 2 ** 60] += 1
        assert refused >= 5
        assert {k for k in kinds if k[2]} == {
            (2, 0, True), (2, 2, True), (3, 1, True), (3, 3, True)}

    def test_a_zero_discriminant_raises(self):
        for p in (X_MINUS_1 ** 2, Poly([0, 0, 1]), Poly([1, 2, 1]) * Poly([3, 1]),
                  X_PLUS_1 ** 3, Poly([-1, 2]) ** 2 * X_MINUS_1, Poly([0, 0, 1]) * X_PLUS_1,
                  Poly([-2 ** 70, 1]) ** 2 * Poly([5, 1]), Poly([4, -4, 1]) * -3):
            with pytest.raises(NonSquarefreeError):
                exactalg._root_counts(p)
            with pytest.raises(NonSquarefreeError):  # as the Sturm chain route does
                root_counts_by_sturm_chain(p)


class TestFactorPieces:
    """factor_over_Q(*pieces) factors each piece and adds the multiplicities
    of shared factors: the report of the product, by unique factorization."""

    def test_pieces_give_the_report_of_their_product(self):
        rng = random.Random(93)
        shared = [X_MINUS_1, X_PLUS_1, Poly([1, 1, 1]), Poly([1, -3, 1]), QUARTIC_6_2,
                  Poly([-1, 2]), Poly([3, 0, 2]), Poly([1, 0, 1, 0, 1])]
        for _ in range(200):
            pieces = [Poly([rng.choice((1, -1, 2, -3))])
                      * math.prod(rng.choices(shared, k=rng.randint(0, 4)), start=Poly([1]))
                      for _ in range(rng.randint(1, 5))]
            p = math.prod(pieces, start=Poly([1]))
            assert factor_over_Q(*pieces) == factor_over_Q(p), pieces

    def test_one_sturm_chain_per_distinct_factor(self, monkeypatch):
        built = []
        build = SturmChain.build.__func__
        monkeypatch.setattr(SturmChain, "build",
                            classmethod(lambda cls, p: built.append(p) or build(cls, p)))
        pieces = [QUARTIC_6_2 * X_MINUS_1, QUARTIC_6_2 ** 2, X_MINUS_1 * Poly([1, 1, 1])]
        report = factor_over_Q(*pieces)
        assert [(f.poly, f.multiplicity) for f in report.factors] == [
            (X_MINUS_1, 2), (Poly([1, 1, 1]), 1), (QUARTIC_6_2, 3)]
        # one chain per factor of degree >= 4; x - 1 and x^2 + x + 1 take none
        assert built == [QUARTIC_6_2]

    def test_a_shared_record_changes_no_report(self, monkeypatch):
        built = []
        build = SturmChain.build.__func__
        monkeypatch.setattr(SturmChain, "build",
                            classmethod(lambda cls, p: built.append(p) or build(cls, p)))
        rng = random.Random(113)
        shared = [X_MINUS_1, X_PLUS_1, Poly([1, 1, 1]), Poly([1, -3, 1]), QUARTIC_6_2,
                  QUARTIC_7_6, Poly([-1, 2]), Poly([3, 0, 2]), Poly([1, 0, 1, 0, 1])]
        cases = [[Poly([rng.choice((1, -1, 2, -3))])
                  * math.prod(rng.choices(shared, k=rng.randint(0, 5)), start=Poly([1]))
                  for _ in range(rng.randint(1, 4))] for _ in range(150)]
        alone = [factor_over_Q(*pieces) for pieces in cases]
        built.clear()
        known = {}
        for pieces, expected in zip(cases, alone):
            assert factor_over_Q(*pieces, known=known) == expected, pieces
        assert sorted(built, key=Poly.key) == sorted((f for f in known if f.degree >= 4),
                                                     key=Poly.key)
        assert {f for f in known if 2 <= f.degree <= 3} == {
            Poly([1, 1, 1]), Poly([1, -1, 1]), Poly([1, -3, 1]), Poly([3, 0, 2])}
        assert set(known) == {f.poly for report in alone for f in report.factors}
        assert {f for f in known if f.degree == 1} == {X_MINUS_1, X_PLUS_1, Poly([-1, 2])}
        assert all(known[f] == exactalg._root_counts(f) for f in known)


def counted_subsets(monkeypatch) -> list:
    """Route itertools.combinations through a recorder of the subsets it
    yields, which are the subsets recombination takes to the trace test."""
    subsets, combinations = [], itertools.combinations

    def record(pool, size):
        for subset in combinations(pool, size):
            subsets.append(subset)
            yield subset

    monkeypatch.setattr(itertools, "combinations", record)
    return subsets


def test_half_size_recombination_skips_complements(monkeypatch):
    # 6_2's char(M) is irreducible and splits mod 3 into two quadratics: the
    # subset {0} and its complement {1} are one split, tried once
    trials = counted_subsets(monkeypatch)
    fp = exactalg._monic_mod(QUARTIC_6_2, 3)
    assert [(g.degree, d) for g, d in exactalg._distinct_degree(fp, 3)] == [(4, 2)]
    assert exactalg._factor_squarefree(QUARTIC_6_2) == [QUARTIC_6_2]
    assert trials == [(0,)]


# Alexander polynomials of two-bridge knots whose level-1 pieces, (t - 1)^g
# times an irreducible of degree 60 or 40, split into many factors mod p:
# without the trace test the subset search forms thousands of products on
# each, and `analyze --max-level 1 --max-degree 100` took 131, 21 and 1.3 s
TWO_BRIDGE_DELTAS = {
    "genus 6, 1 -11 51": [1, -11, 51, -139, 263, -375, 421, -375, 263, -139, 51, -11, 1],
    "genus 6, 1 -13 75": [1, -13, 75, -259, 597, -971, 1141, -971, 597, -259, 75, -13, 1],
    "genus 5, 1 -9 37": [1, -9, 37, -93, 159, -191, 159, -93, 37, -9, 1],
}


class TestTraceTest:
    """Recombination forms a subset's product only when lead times the sum of
    its lifts' second coefficients is small enough for a true factor."""

    @staticmethod
    def level1_pieces():
        return {name: level_pieces([(Poly(delta), 1)], 2)[0]
                for name, delta in TWO_BRIDGE_DELTAS.items()}

    def test_two_bridge_pieces_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for name, piece in self.level1_pieces().items():
            _, expected = sympy.Poly(list(reversed(piece.coeffs)), t).factor_list()
            expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m)
                        for f, m in expected]
            got = [(f.poly.coeffs, f.multiplicity) for f in factor_over_Q(piece).factors]
            assert sorted(got) == sorted(expected), name
            assert sorted(len(coeffs) - 1 for coeffs, _ in got) in ([1, 40], [1, 60]), name

    def test_few_divisions_per_true_factor(self, monkeypatch):
        divisions, div_z = [], Poly.div_z
        monkeypatch.setattr(Poly, "div_z", lambda a, b: divisions.append(b) or div_z(a, b))
        subsets = counted_subsets(monkeypatch)
        for name, piece in self.level1_pieces().items():
            # squarefree: x - 1 once, and the irreducible
            f = squarefree_part(piece)
            divisions.clear()
            subsets.clear()
            factors = exactalg._factor_squarefree(f)
            assert math.prod(factors, start=Poly([1])) == f, name
            assert sorted(g.degree for g in factors) in ([1, 40], [1, 60]), name
            assert len(divisions) <= 2 * len(factors), name
            assert len(subsets) > 1000, name  # a long search, cut short by the test


def _split_cases(rng: random.Random):
    """(x - 1)^a (x + 1)^b g for every cofactor, a and b in 0..60."""
    fixed = [(0, 0), (1, 0), (0, 1), (2, 3), (60, 0), (0, 60), (60, 60)]
    for g in UNIT_SMALL_PARTS + UNIT_QUARTICS + NON_UNIT_COFACTORS:
        for a, b in fixed + [(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(3)]:
            yield X_MINUS_1 ** a * X_PLUS_1 ** b * g


class TestUnitSplit:
    """factor_over_Q divides off x - 1 and x + 1 first and reads a unit
    cofactor, or a squarefree part of a unit polynomial, of degree <= 4 in
    closed form: irreducible up to degree 3, and a quartic irreducible or two
    quadratics with constant terms +-1.  The exterior square of a unit
    quartic in the record splits along that quartic's resolvent cubic."""

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for p in _split_cases(random.Random(89)):
            _, expected = sympy.Poly(list(reversed(p.coeffs)), t).factor_list()
            expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m)
                        for f, m in expected]
            report = factor_over_Q(p)
            got = [(f.poly.coeffs, f.multiplicity) for f in report.factors]
            assert sorted(got) == sorted(expected), p
            assert reconstruct(report) == p

    def test_unit_parts_up_to_degree_4_skip_the_modular_route(self, monkeypatch):
        calls = []
        modular = exactalg._factor_squarefree
        monkeypatch.setattr(exactalg, "_factor_squarefree",
                            lambda f: calls.append(f) or modular(f))
        rng = random.Random(97)
        for g in UNIT_SMALL_PARTS + UNIT_QUARTICS:
            for a, b in [(0, 0), (1, 0), (0, 1), (60, 60)] + [
                    (rng.randint(0, 60), rng.randint(0, 60)) for _ in range(3)]:
                factor_over_Q(X_MINUS_1 ** a * X_PLUS_1 ** b * g)
        # every level polynomial of rank 2 and 3 at levels 0 and 1 has degree <= 3
        for i in range(60):
            record = KnotRecord(name=f"r{i}", phi=random_automorphism(rng, 2 + i % 2),
                                fibered=True)
            analyze(record, max_level=1)
        assert calls == []
        # a non-unit cubic, and a unit sextic that is no recorded quartic's
        # exterior square, do take it
        sextic = Poly([-1, -1, 0, 1]) * Poly([1, 0, -1, 1])
        factor_over_Q(NON_UNIT_COFACTORS[0])
        factor_over_Q(sextic)
        assert calls == [NON_UNIT_COFACTORS[0], sextic]

    def test_rank_4_levels_0_and_1_skip_the_modular_route(self, monkeypatch):
        calls = []
        modular = exactalg._factor_squarefree
        monkeypatch.setattr(exactalg, "_factor_squarefree",
                            lambda f: calls.append(f) or modular(f))
        rng = random.Random(98)
        sextics = 0
        for i in range(100):
            record = KnotRecord(name=f"r{i}", phi=random_automorphism(rng, 4, rng.randint(3, 10)),
                                fibered=True)
            report = analyze(record, max_level=1)
            sextics += any(f.poly.degree == 6 for f in report.levels[1].factors.factors)
        assert calls == []
        assert sextics >= 10  # irreducible exterior squares of irreducible quartics


def _unit_quadratic(rng: random.Random, q: int) -> Poly:
    """x^2 + p x + q with no root +-1, that is 1 + q +- p != 0."""
    while True:
        p = rng.randint(-9, 9)
        if 1 + q + p and 1 + q - p:
            return Poly([q, p, 1])


def _sympy_factors(sympy, p: Poly) -> list:
    t = sympy.Symbol("t")
    _, factors = sympy.Poly(list(reversed(p.coeffs)), t).factor_list()
    return sorted((Poly(reversed(f.all_coeffs())).canonical().coeffs, m) for f, m in factors)


class TestUnitQuartics:
    """A unit quartic with no root +-1 is irreducible or (x^2 + p x + q)
    times (x^2 + r x + s) with q s = +-1, read off its coefficients."""

    def test_matches_sympy(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        calls = []
        modular = exactalg._factor_squarefree
        monkeypatch.setattr(exactalg, "_factor_squarefree",
                            lambda f: calls.append(f) or modular(f))
        rng = random.Random(99)
        quartics = {"irreducible": [], "(1, 1)": [], "(-1, -1)": [], "(1, -1)": [],
                    "square": []}
        while len(quartics["irreducible"]) < 150:
            f = Poly([rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(3)] + [1])
            if f(1) and f(-1) and len(_sympy_factors(sympy, f)) == 1:
                quartics["irreducible"].append(f)
        for q, s in ((1, 1), (-1, -1), (1, -1)):
            quartics[str((q, s))] = [_unit_quadratic(rng, q) * _unit_quadratic(rng, s)
                                     for _ in range(60)]
        quartics["square"] = [_unit_quadratic(rng, rng.choice((1, -1))) ** 2
                              for _ in range(30)]
        for kind, fs in quartics.items():
            for f in fs:
                expected = _sympy_factors(sympy, f)
                got = sorted((g.coeffs, m) for g, m in exactalg._unit_factors(f))
                assert got == expected, (kind, f)
                # whole, after x -+ 1, and as the squarefree part of f^2 in Yun's loop
                for p, mult in ((f, 1), (X_MINUS_1 ** 2 * X_PLUS_1 * f, 1), (f * f, 2)):
                    report = factor_over_Q(p)
                    assert reconstruct(report) == p
                    assert [(g.poly.coeffs, g.multiplicity) for g in report.factors
                            if g.poly.degree > 1] == [(c, mult * m) for c, m in expected]
        assert calls == []


# Irreducible unit quartics whose Galois group is V4, so that the resolvent
# cubic has three integer roots (8 of the 3800 irreducible unit quartics with
# a, b, c in -6..6 whose exterior square has no root +-1).
V4_QUARTICS = (
    Poly([1, -2, 5, -4, 1]),
    Poly([1, -4, 5, -2, 1]),
    Poly([-1, 2, 5, -6, 1]),
    Poly([-1, 6, -5, -2, 1]),
)


class TestExteriorSquare:
    """The exterior square S of a unit quartic f in the record, the level-1
    polynomial of a rank-4 fiber with char(M) = f, is split along f's
    resolvent cubic R: an integer root r of R gives the factor x^2 - r x + e,
    and with none S is irreducible."""

    def test_record_gives_the_record_free_factors(self, monkeypatch):
        calls = []
        modular = exactalg._factor_squarefree
        monkeypatch.setattr(exactalg, "_factor_squarefree",
                            lambda f: calls.append(f) or modular(f))
        rng = random.Random(100)
        quartics = list(V4_QUARTICS)
        while len(quartics) < 400:
            f = Poly([rng.choice((1, -1))] + [rng.randint(-6, 6) for _ in range(3)] + [1])
            report = factor_over_Q(f)
            if [(g.poly, g.multiplicity) for g in report.factors] == [(f, 1)]:
                quartics.append(f)
        integer_roots = Counter()
        for f in quartics:
            s = brandt_level_char_poly(abelianized(companion_map([f])), 2)
            free = factor_over_Q(s)
            calls.clear()
            assert factor_over_Q(s, known={f: exactalg._root_counts(f)}) == free, f
            if s(1) and s(-1):
                assert calls == [], f
                # x^2 - y x + e divides S exactly when y = l_i l_j + l_k l_l
                # for {i, j, k, l} = {1, 2, 3, 4}, a root of R
                e, bound = f.constant, 2 * (1 + max(map(abs, s.coeffs)))
                integer_roots[sum(s.div_z(Poly([e, -y, 1])) is not None
                                  for y in range(-bound, bound + 1))] += 1
        assert integer_roots[0] >= 100 and integer_roots[1] >= 10 and integer_roots[3] >= 4

    def test_near_misses_and_multiples_factor_as_without_the_record(self):
        f = QUARTIC_6_2
        s = brandt_level_char_poly(abelianized(companion_map([f])), 2)
        assert s == SEXTIC_6_2
        # s + x^3 is no exterior square; the others leave s once x - 1, the
        # sign or f itself is divided off
        for other in (s + Poly([0, 0, 0, 1]), s * X_MINUS_1 ** 2, -s, s * f):
            known = {f: exactalg._root_counts(f)}
            assert factor_over_Q(other, known=known) == factor_over_Q(other)

    def test_integer_roots_of_cubics(self):
        rng = random.Random(102)
        for _ in range(2000):
            g = Poly([rng.randint(-30, 30) for _ in range(3)] + [1])
            bound = 1 + max(map(abs, g.coeffs))
            assert exactalg._integer_roots(g) == [y for y in range(-bound, bound + 1)
                                                  if not g(y)], g
        for _ in range(300):
            size = 10 ** rng.randint(1, 40)
            r1, r2, r3 = (rng.randint(-size, size) for _ in range(3))
            c = rng.randint(-size, size)
            # three integer roots, some of them close or equal, and one root
            # beside y^2 + c^2 + 1, which has none
            for g, roots in ((Poly([-r1, 1]) * Poly([-r2, 1]) * Poly([-r3, 1]), {r1, r2, r3}),
                             (Poly([-r1, 1]) * Poly([-r1 - 1, 1]) * Poly([-r2, 1]),
                              {r1, r1 + 1, r2}),
                             (Poly([-r1, 1]) * Poly([c * c + 1, 0, 1]), {r1})):
                assert exactalg._integer_roots(g) == sorted(roots), g


# Irreducible quartics of the rarer groups, found by a scan with sympy: A4
# (the unit quartics of helpers, and x^4 - 8x + 12), and C4 among the
# palindromic x^4 + a x^3 + b x^2 + a x + 1 with a, b in -12..12.
A4_QUARTICS = (*A4_UNIT_QUARTICS, Poly([12, -8, 0, 0, 1]))
C4_PALINDROMIC = tuple(Poly([1, a, b, a, 1])
                       for a, b in ((-4, -11), (-1, -9), (-1, 1), (1, -9), (1, 1), (4, -11)))
# x^3 - x^2 - 2x + 1 (roots 2 cos(2 pi k / 7) - 1), the A3 block of a
# char(M) (x + 1)(x^3 - x^2 - 2x + 1)
A3_CUBIC = Poly([1, -2, -1, 1])


def _shanks_cubic(a: int) -> Poly:
    """x^3 - a x^2 - (a + 3) x - 1, irreducible with a square discriminant
    (a^2 + 3a + 9)^2, so its group is A3 (Shanks, Math. Comp. 28, 1974)."""
    return Poly([-1, -(a + 3), -a, 1])


class TestGaloisCertificate:
    """galois_certificate names S3, S4, A4, or D4 for a palindromic quartic,
    exactly when sympy's galois_group finds that group, and S2 for a unit
    quadratic that is not cyclotomic; the orbit polynomials it licenses are
    the minimal polynomials of the monomials."""

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(103)

        def unit(degree):
            return Poly([rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(degree - 1)]
                        + [1])

        samples = [_shanks_cubic(a) for a in range(-10, 10)] + [A3_CUBIC]
        samples += [*A4_QUARTICS, *C4_PALINDROMIC, *V4_QUARTICS]
        samples += [unit(2) for _ in range(40)] + [unit(3) for _ in range(150)]
        samples += [unit(4) for _ in range(200)]
        samples += [Poly([1, a, rng.randint(-12, 12), a, 1])
                    for a in (rng.randint(-12, 12) for _ in range(150))]
        groups = Counter()
        for f in samples:
            p = sympy.Poly(list(reversed(f.coeffs)), t)
            if not p.is_irreducible:
                continue
            name = sympy.galois_group(p, by_name=True)[0].name
            palindromic = f.degree == 4 and f.coeffs == f.coeffs[::-1]
            # a quadratic's certificate needs distinct orbit roots: a unit
            # that is not x^2 + 1 or x^2 +- x + 1, whose roots are roots of unity
            cyclotomic = f.coeffs in ((1, 0, 1), (1, 1, 1), (1, -1, 1))
            expected = name if name in ("S3", "S4", "A4") or (name, palindromic) == ("D4", True) \
                or (name == "S2" and f.constant in (1, -1) and not cyclotomic) else None
            assert exactalg.galois_certificate(f) == expected, (f, name)
            groups[name, palindromic] += 1
        assert {name for name, _ in groups} == {"S2", "A3", "S3", "A4", "S4", "D4", "C4", "V"}
        assert groups["D4", True] >= 100 and groups["D4", False] >= 10, groups
        assert min(groups.values()) >= 4, groups

    def test_symmetric_orbits_multiply_to_the_symmetric_power(self):
        # under S_d every monomial of degree c lies in one orbit, keyed by
        # its exponent type, a partition of c into at most d parts, so the
        # orbit polynomials' power sums add up to h_c(l^j), read off
        # char(C^j) of the companion matrix C of f
        rng = random.Random(104)
        blocks = [Poly([1, -1, 0, 1]), Poly([-1, 1, 0, 0, 1])]
        while len(blocks) < 12:
            f = Poly([rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(rng.choice((2, 3)))]
                     + [1])
            if f(1) and f(-1) and len(factor_over_Q(f).factors) == 1 \
                    and exactalg.galois_certificate(f) in ("S3", "S4"):
                blocks.append(f)
        for f in blocks:
            c_matrix = abelianized(companion_map([f]))
            d = f.degree
            group = exactalg.galois_certificate(f)
            for c in range(1, 5):
                types = {tuple(sorted(filter(None, v), reverse=True))
                         for v in itertools.product(range(c + 1), repeat=d) if sum(v) == c}
                orbits = [exactalg.orbit_polynomial(f, group, pi) for pi in types]
                assert None not in orbits, (f, c)
                product = math.prod(orbits[1:], start=orbits[0])
                assert product.degree == math.comb(c + d - 1, d - 1)
                power = c_matrix
                sums = []
                for _ in range(product.degree):
                    # e_i(l^j) from char(C^j); h_c from e by h_n = sum (-1)^(i-1) e_i h_(n-i)
                    e = [(-1) ** i * a for i, a in enumerate(reversed(cofactor_char_poly(power).coeffs))]
                    h = [1]
                    for n in range(1, c + 1):
                        h.append(sum((-1) ** (i - 1) * e[i] * h[n - i]
                                     for i in range(1, min(n, d) + 1)))
                    sums.append(h[c])
                    power = power @ c_matrix
                assert power_sums(product, product.degree)[1:] == sums, (f, c)
                assert all(len(factor_over_Q(q).factors) == 1 for q in orbits), (f, c)

    def test_an_orbit_with_a_repeated_root_is_left_out(self):
        # the roots of x^4 + x^3 + x^2 + x + 1 are z, z^2, z^3, z^4, z^5 = 1,
        # and its group is C4; named S4, the orbit of l1 l2 holds
        # z z^4 = z^2 z^3 = 1 twice, so its polynomial (x - 1)^2 f is left
        # out, and that of l1^2 is f itself
        f = Poly([1, 1, 1, 1, 1])
        assert exactalg.galois_certificate(f) is None
        assert exactalg.orbit_polynomial(f, "S4", (1, 1)) is None
        assert exactalg.orbit_polynomial(f, "S4", (2,)) == f

    def test_a4_leaves_out_the_s4_orbits_it_splits(self):
        # no transposition fixes l1^3 l2^2 l3, so A4 splits its S4 orbit of
        # 24 monomials into two of 12; the vectors of sum <= 5 over 4 roots
        # all have a repeated entry, and A4 keeps their S4 orbits whole
        for f in A4_UNIT_QUARTICS:
            assert exactalg.galois_certificate(f) == "A4"
            assert exactalg.orbit_polynomial(f, "A4", (3, 2, 1)) is None
            whole = exactalg.orbit_polynomial(f, "S4", (3, 2, 1))
            assert [(g.poly.degree, g.multiplicity) for g in factor_over_Q(whole).factors] \
                == [(12, 1), (12, 1)], f
            assert exactalg.orbit_polynomial(f, "A4", (2, 1, 1)) \
                == exactalg.orbit_polynomial(f, "S4", (2, 1, 1)) is not None

    def test_a_wrong_certificate_shows_in_the_report(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        record = KnotRecord("a3", companion_map([Poly([1, 1]), A3_CUBIC]), True)

        def sympy_agrees(report):
            return all(_sympy_factors(sympy, level.factors.input)
                       == sorted((f.poly.coeffs, f.multiplicity) for f in level.factors.factors)
                       for level in report.levels)

        assert exactalg.galois_certificate(A3_CUBIC) is None
        assert sympy_agrees(analyze(record, max_level=2, max_degree=100))
        certificate = exactalg.galois_certificate
        monkeypatch.setattr(exactalg, "galois_certificate",
                            lambda f: "S3" if f == A3_CUBIC else certificate(f))
        # the S3 orbit of l1^2 l2 is two A3 orbits: a reducible sextic taken
        # as irreducible at level 2
        report = analyze(record, max_level=2, max_degree=100)
        assert not sympy_agrees(report)
        assert any(f.poly.degree == 6 for f in report.levels[2].factors.factors)


# sha256 of (content, [(coeffs, multiplicity, pos, neg, real)]) from
# factor_over_Q over x^n +- 1 (n <= 40), the corpus level polynomials at levels
# 0..3 and 300 seeded random products, recorded before Hensel lifting and
# recombination moved onto coefficient tuples.  Any change to a factor, its
# order, the content or a root count fails here.
_FACTOR_DIGEST = "23b1aab3ba3ce1e4d2ecbc1685ac6715e094b993c7bebe6727add5ece0dc6b57"


def _factor_battery() -> list[Poly]:
    polys = [Poly([s] + [0] * (n - 1) + [1]) for n in range(1, 41) for s in (1, -1)]
    for entry in corpus_entries():
        m = abelianized(entry.record.phi)
        polys += [brandt_level_char_poly(m, k) for k in range(1, 5)]
    rng = random.Random(73)
    for _ in range(300):
        p = Poly([rng.choice((1, -1, 2, -3, 6))])
        for _ in range(rng.randint(1, 5)):
            low = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            p = p * Poly(low + [rng.choice((1, 1, 2, 3))]) ** rng.choice((1, 1, 1, 2))
        polys.append(p)
    return polys


def test_factor_reports_are_pinned():
    out = []
    for p in _factor_battery():
        r = factor_over_Q(p)
        out.append((r.content, [(f.poly.coeffs, f.multiplicity, f.positive_real_roots,
                                 f.negative_real_roots, f.real_roots) for f in r.factors]))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _FACTOR_DIGEST


class TestHenselLift:
    @staticmethod
    def _modular_factors(f: Poly):
        """The first odd prime p not dividing lc(f) with f squarefree mod p, and
        the monic factors of f mod p."""
        for p in _odd_primes():
            if f.leading % p:
                fp = _monic_mod(f, p)
                dfp = fp.derivative() % p
                if dfp and _gcd_mod(fp, dfp, p).degree == 0:
                    return p, [u for g, d in _distinct_degree(fp, p)
                               for u in _equal_degree(g, d, p, random.Random(p))]

    def test_lift_identities(self):
        rng = random.Random(83)
        inputs = []
        for entry in corpus_entries():
            m = abelianized(entry.record.phi)
            inputs += [squarefree_part(brandt_level_char_poly(m, k)) for k in (1, 2, 3)]
        inputs += _random_squarefree(rng, 60)
        for _ in range(40):
            a, b = _random_squarefree(rng, 2)
            inputs.append(squarefree_part(a * b))
        split = 0
        for f in inputs:
            if f.degree < 2:
                continue
            p, modular = self._modular_factors(f)
            pl = p ** rng.randint(1, 9)
            lifted = _hensel_lift(p, f, modular, pl)
            product = Poly([f.leading])
            for u, mf in zip(lifted, modular, strict=True):
                assert u.degree == mf.degree and u.leading == 1, (f, p, u)
                assert u % p == mf, (f, p, u)
                product = product * u
            assert all((x - y) % pl == 0 for x, y in zip(product.coeffs, f.coeffs,
                                                          strict=True)), (f, pl)
            split += len(modular) >= 3
        assert split >= 40


def test_hensel_lift_stops_at_the_target_modulus(monkeypatch):
    moduli = []
    step = exactalg._hensel_step
    monkeypatch.setattr(exactalg, "_hensel_step",
                        lambda f, g, h, s, t, mm: moduli.append(mm) or step(f, g, h, s, t, mm))
    f = Poly([1, 0, 0, 0, 0, 0, 0, 0, 1])  # x^8 + 1, reducible mod every prime
    p, modular = TestHenselLift._modular_factors(f)
    for e in (2, 3, 5, 9, 16, 17):
        moduli.clear()
        lifted = _hensel_lift(p, f, modular, p ** e)
        assert moduli and max(moduli) == p ** e, (e, moduli)
        assert all(u % p == mf for u, mf in zip(lifted, modular, strict=True))


class TestIrreducibilityCertificate:
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

    def test_certificate_is_sound_on_known_cases(self):
        assert irreducible_by_degree_patterns(QUARTIC_6_2, self.PRIMES)
        assert irreducible_by_degree_patterns(Poly([1, 1, 1]), self.PRIMES)
        assert not irreducible_by_degree_patterns(Poly([-1, 0, 1]), self.PRIMES)
        assert not irreducible_by_degree_patterns(QUARTIC_6_2 * QUARTIC_7_6, self.PRIMES)
        # splits mod every prime, so no set of primes certifies it
        assert not irreducible_by_degree_patterns(Poly([1, 0, 0, 0, 1]), self.PRIMES)

    def test_returned_factors_are_irreducible(self):
        reports = [analyze(e.record, max_level=2, max_degree=100) for e in corpus_entries()]
        rng = random.Random(71)
        for i in range(150):
            record = KnotRecord(name=f"r{i}", phi=random_automorphism(rng, 2 + i % 3),
                                fibered=True)
            reports.append(analyze(record, max_level=1))
        nonlinear = {f.poly for r in reports for level in r.levels
                     for f in level.factors.factors if f.poly.degree > 1}
        uncertified = [f for f in nonlinear
                       if not irreducible_by_degree_patterns(f, self.PRIMES)]
        assert len(nonlinear) >= 50 and len(uncertified) <= len(nonlinear) // 4
        if uncertified:
            sympy = pytest.importorskip("sympy")
            t = sympy.Symbol("t")
            for f in uncertified:
                assert sympy.Poly(list(reversed(f.coeffs)), t).is_irreducible, f


class TestSturm:
    def test_two_positive_roots(self):
        assert sturm_count(Poly([1, -3, 1]), 0, None) == 2

    def test_no_real_roots(self):
        assert sturm_count(Poly([1, -1, 1]), None, None) == 0

    def test_paper_quartic_positive_count(self):
        assert sturm_count(QUARTIC_6_2, 0, None) == 2

    def test_non_squarefree_rejected(self):
        with pytest.raises(NonSquarefreeError):
            sturm_count(Poly([-1, 1]) ** 2, None, None)

    def test_reversed_interval_rejected(self):
        # (2, -2] is empty; counting it would give v(2) - v(-2) = -2
        p = Poly([-2, 0, 1])
        with pytest.raises(ValueError, match=r"^empty interval \(2, -2\]$"):
            sturm_count(p, 2, -2)
        with pytest.raises(ValueError, match="empty interval"):
            sturm_count(p, Fraction(1, 2), Fraction(1, 3))
        assert sturm_count(p, 2, 2) == 0
        assert sturm_count(p, -2, 2) == 2

    def test_ends_must_be_int_or_fraction(self):
        # at the float end 1.0, 2**60 * 1.0 - (2**60 + 1) rounds to 0, and the
        # root just above 1 went uncounted
        p = Poly([-(2 ** 60 + 1), 2 ** 60])
        assert sturm_count(p, 1, None) == sturm_count(p, Fraction(1), None) == 1
        assert sturm_count(p, None, 1) == sturm_count(p, None, Fraction(1)) == 0
        assert sturm_count(p, True, Fraction(2 ** 60 + 1, 2 ** 60)) == 1
        for end in (1.0, decimal.Decimal(1), "1"):
            with pytest.raises(TypeError, match=r"^interval ends must be None, int or Fraction"):
                sturm_count(p, end, None)
            with pytest.raises(TypeError, match=r"^interval ends must be None, int or Fraction"):
                sturm_count(p, None, end)
        with pytest.raises(TypeError, match=r": \(1\.0, None\]$"):
            sturm_count(p, 1.0, None)

    def test_planted_roots_oracle(self):
        rng = random.Random(36)
        for _ in range(200):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            p = Poly([1])
            for r in roots:
                p = p * Poly([-r, 1])
            if rng.random() < 0.5:
                p = p * Poly([1, 0, 1])  # adds an imaginary pair only
            assert count_real_roots(p) == len(roots)
            assert count_positive_roots(p) == sum(1 for r in roots if r > 0)
            assert count_negative_roots(p) == sum(1 for r in roots if r < 0)
            a = rng.randint(-7, 6)
            b = rng.randint(a + 1, 7)
            assert sturm_count(p, a, b) == sum(1 for r in roots if a < r <= b)

    def test_interval_partition(self):
        rng = random.Random(37)
        for _ in range(100):
            p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 6))])
            if p.is_zero or p.degree < 1:
                continue
            p = squarefree_part(p)
            if p.degree < 1:
                continue
            at_zero = 1 if p(0) == 0 else 0
            assert (count_negative_roots(p) + at_zero + count_positive_roots(p)
                    == count_real_roots(p))

    def test_rational_roots_and_fraction_endpoints(self):
        rng = random.Random(38)
        for _ in range(100):
            roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(rng.randint(1, 4))}
            p = Poly([1])
            for r in roots:
                p = p * Poly([-r.numerator, r.denominator])
            if rng.random() < 0.5:
                p = p * Poly([1, 1, 1])  # adds an imaginary pair only
            ends = sorted(roots) + [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                                    for _ in range(3)]
            a, b = sorted(rng.sample(ends, 2))
            assert sturm_count(p, a, b) == sum(1 for r in roots if a < r <= b)
            assert sturm_count(p, a, None) == sum(1 for r in roots if a < r)
            assert sturm_count(p, None, b) == sum(1 for r in roots if r <= b)
            at_zero = 1 if 0 in roots else 0
            assert (count_negative_roots(p) + at_zero + count_positive_roots(p)
                    == count_real_roots(p) == len(roots))


class TestSturmChain:
    def test_chain_ends_in_constant_for_squarefree(self):
        from biorder.exactalg import SturmChain
        chain = SturmChain.build(Poly([1, -3, 1]))
        assert chain.polys[-1].degree == 0
        assert chain.polys[0] == Poly([1, -3, 1])

    def test_zero_polynomial_errors(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count(Poly(), 0, None)
        with pytest.raises(ZeroPolynomialError):
            squarefree_decomposition(Poly())
        with pytest.raises(ZeroPolynomialError):
            rational_roots(Poly())
        with pytest.raises(ZeroPolynomialError):
            has_positive_real_root(Poly())
        with pytest.raises(ZeroPolynomialError):
            all_roots_positive_real(Poly())


class TestRationalRoots:
    def test_paper_quartic_has_none(self):
        assert rational_roots(QUARTIC_6_2) == []

    def test_difference_of_squares(self):
        assert rational_roots(Poly([-1, 0, 1])) == [1, -1]

    def test_half(self):
        assert rational_roots(Poly([-1, 2])) == [Fraction(1, 2)]

    def test_zero_roots_and_multiplicity(self):
        assert rational_roots(Poly([0, 0, -1, 1])) == [0, 0, 1]

    def test_planted_rational_roots(self):
        rng = random.Random(38)
        for _ in range(100):
            nums = rng.sample(range(-5, 6), rng.randint(1, 3))
            dens = [rng.choice((1, 2, 3)) for _ in nums]
            p = Poly([1, 0, 1])  # irrational/imaginary padding
            expected = []
            for n, d in zip(nums, dens):
                p = p * Poly([-n, d])
                expected.append(Fraction(n, d))
            got = rational_roots(p)
            assert sorted(got) == sorted(expected)


class TestRootPredicates:
    def test_has_positive_real_root(self):
        assert not has_positive_real_root(Poly([1, -1, 1]))
        assert has_positive_real_root(Poly([1, -3, 1]))
        assert not has_positive_real_root(Poly([1, 1]))

    def test_all_roots_positive_real(self):
        assert all_roots_positive_real(Poly([1, -3, 1]))
        assert not all_roots_positive_real(Poly([1, -1, 1]))
        assert all_roots_positive_real(Poly([-1, 1]) ** 2)

    def test_homology_sanity_for_corpus_polynomials(self):
        # char(M)(1) = +-1 for every knot group abelianization
        assert QUARTIC_6_2(1) == -1
        assert QUARTIC_7_6(1) == -1
        assert char_poly(M_TREFOIL)(1) == 1
        assert char_poly(M_FIGURE8)(1) == -1


class TestUnimodularSampling:
    def test_random_unimodular_matrices_have_unit_determinant(self):
        rng = random.Random(39)
        for _ in range(100):
            m = random_unimodular_matrix(rng, rng.randint(2, 4))
            assert abs(bareiss_det(m)) == 1


def _euclid_sturm_chain(p: Poly) -> list[Poly]:
    """Textbook Sturm chain over Q, unnormalised: p, p', -rem(p_{i-1}, p_i), ..."""
    chain = [p, p.derivative()]
    while True:
        _, r = divmod_q(chain[-2], chain[-1])
        if r.is_zero:
            return chain
        chain.append(-r)


def _primitive_over_q(p: Poly) -> Poly:
    """Primitive integer multiple of a rational polynomial, sign kept."""
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    g = math.gcd(*ints)
    return Poly([c // g for c in ints])


def _random_squarefree(rng: random.Random, count: int) -> list[Poly]:
    """Random integer polynomials of degree 1-12, many of them sparse, that
    are squarefree over Q (the Euclidean chain ends in a constant)."""
    out = []
    while len(out) < count:
        d = rng.randint(1, 12)
        pool = (0, 0, 0, 1, -1, 2, -3) if rng.random() < 0.6 else tuple(range(-9, 10))
        p = Poly([rng.choice(pool) for _ in range(d)] + [rng.choice((1, -1, 2, -5, 7))])
        if _euclid_sturm_chain(p)[-1].degree == 0:
            out.append(p)
    return out


def _corpus_factors() -> list[Poly]:
    return [f.poly for entry in corpus_entries()
            for level in analyze(entry.record, max_level=1).levels
            for f in level.factors.factors]


class TestIntegerRemainders:
    def test_sturm_chain_equals_euclidean_chain(self):
        inputs = _random_squarefree(random.Random(40), 150) + _corpus_factors()
        sign_corrected = 0
        for p in inputs:
            chain = SturmChain.build(p).polys
            assert chain == tuple(_primitive_over_q(q) for q in _euclid_sturm_chain(p))
            # steps where prem carries the factor sign(lc)^(d+1) = -1
            sign_corrected += sum(1 for a, b in zip(chain, chain[1:-1])
                                  if b.leading < 0 and (a.degree - b.degree) % 2 == 0)
        assert sign_corrected >= 5

    def test_pseudo_remainder_is_scaled_remainder_over_q(self):
        rng = random.Random(41)
        for _ in range(200):
            a = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            if b.is_zero:
                continue
            _, r = divmod_q(a, b)
            scale = b.leading ** max(a.degree - b.degree + 1, 0)
            assert a.pseudo_rem(b) == r * scale

    def test_integer_quotient_iff_exact_integral_division_over_q(self):
        rng = random.Random(42)
        seen = {True: 0, False: 0}
        for _ in range(400):
            b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
            if rng.random() < 0.5:
                # divisible over Q; over Z only when the cofactor is integral
                a = a * b if rng.random() < 0.5 else Poly([rng.choice((1, 2, 3))]) * b
                if rng.random() < 0.3:
                    b = b * rng.choice((2, 3))
            quo, rem = divmod_q(a, b)
            integral = rem.is_zero and all(Fraction(c).denominator == 1 for c in quo.coeffs)
            got = a.div_z(b)
            assert (got is not None) == integral
            if integral:
                assert got == quo
                assert a.exact_div(b) == quo
            else:
                with pytest.raises(ValueError):
                    a.exact_div(b)
            seen[integral] += 1
        assert min(seen.values()) >= 100

    def test_division_by_zero(self):
        for op in (Poly.pseudo_rem, Poly.div_z):
            with pytest.raises(ZeroPolynomialError):
                op(Poly([1, 1]), Poly())

    def test_root_counts_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 10))] + [1])
            sp = sympy.Poly(list(reversed(p.coeffs)), t)
            if sympy.gcd(sp, sp.diff(t)).degree() > 0:
                continue
            for f in factor_over_Q(p).factors:
                sf = sympy.Poly(list(reversed(f.poly.coeffs)), t)
                at_zero = 1 if f.poly.constant == 0 else 0
                assert (f.positive_real_roots, f.negative_real_roots, f.real_roots) == (
                    sf.count_roots(0, None) - at_zero, sf.count_roots(None, 0) - at_zero,
                    sf.count_roots())
            checked += 1
