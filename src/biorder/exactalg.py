"""Exact integer linear algebra and univariate polynomial algebra.

Everything here is exact: matrices hold Python big integers, polynomials
hold integers or fractions.Fraction coefficients, and real-root counts come
from Sturm chains rather than floating point.  The pieces fit together as

    char_poly           -- Faddeev-LeVerrier with exact integer divisions
    squarefree_decomposition -- Yun's algorithm
    factor_over_Q       -- Berlekamp mod p + Hensel lifting + Zassenhaus
                           subset recombination
    sturm_count         -- sign variations of a content-normalized signed
                           remainder sequence
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class NonSquarefreeError(ValueError):
    """Raised when a Sturm count is requested for a non-squarefree polynomial."""


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Univariate polynomial with exact coefficients, stored ascending.

    Coefficients are Python ints or Fractions; trailing zeros are stripped so
    the leading coefficient is nonzero unless the polynomial is zero (empty
    coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __divmod__(self, other):
        """Exact division over the rationals: (quotient, remainder)."""
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), Poly(self.coeffs)
        quo = [Fraction(0)] * (dq + 1)
        lead = Fraction(other.leading)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem[: max(other.degree, 0)])

    def exact_div(self, other) -> "Poly":
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    # -- content and normalization -------------------------------------------

    def content(self) -> Fraction:
        """Nonnegative rational content (gcd of numerators / lcm of denominators)."""
        if self.is_zero:
            return Fraction(0)
        fracs = [Fraction(c) for c in self.coeffs]
        num = 0
        for f in fracs:
            num = math.gcd(num, abs(f.numerator))
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Primitive part with the sign of the leading coefficient kept."""
        if self.is_zero:
            return self
        c = self.content()
        return Poly([Fraction(x) / c for x in self.coeffs])

    def canonical(self) -> "Poly":
        """Primitive part with positive leading coefficient."""
        p = self.primitive()
        if not p.is_zero and p.leading < 0:
            p = -p
        return p

    def key(self):
        """Deterministic sort key: degree, then ascending coefficient tuple."""
        return (self.degree, self.coeffs)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of exact integers, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d < 1:
            raise ValueError("matrix dimension must be >= 1")
        for row in self.rows:
            if len(row) != d:
                raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        cols = list(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def scaled_identity_added(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(
            tuple(x + (c if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def det(self) -> int:
        """Fraction-free Bareiss elimination."""
        d = self.dim
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(d - 1):
            if a[k][k] == 0:
                for i in range(k + 1, d):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[d - 1][d - 1]


def char_poly(a: IntMatrix) -> Poly:
    """Monic characteristic polynomial det(lambda*I - A), exact integers.

    Faddeev-LeVerrier: every division by the step index is exact, and the
    final iterate must vanish (Cayley-Hamilton), which is asserted.
    """
    d = a.dim
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = IntMatrix.identity(d)
    for k in range(1, d + 1):
        am = a @ m
        tr = am.trace()
        assert tr % k == 0, "Faddeev-LeVerrier division must be exact"
        ck = -(tr // k)
        coeffs[d - k] = ck
        m = am.scaled_identity_added(ck)
    assert m.is_zero(), "Cayley-Hamilton check failed"
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# gcd, squarefree decomposition
# ---------------------------------------------------------------------------

def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (Euclid over Q)."""
    a, b = p.canonical(), q.canonical()
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r.canonical()
    return a


def squarefree_part(p: Poly) -> Poly:
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of zero polynomial")
    pp = p.canonical()
    if pp.degree < 1:
        return pp
    return pp.exact_div(poly_gcd(pp, pp.derivative())).canonical()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm on the primitive part.

    Returns [(factor, multiplicity), ...] with pairwise-coprime squarefree
    factors, canonicalized; the product of factor^multiplicity equals the
    input up to sign and content.
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree decomposition of zero polynomial")
    f = p.canonical()
    if f.degree < 1:
        return []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    out = []
    w = f.exact_div(g)
    y = f.derivative().exact_div(g)
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        gi = poly_gcd(w, z) if not z.is_zero else w.canonical()
        if gi.degree > 0:
            out.append((gi.canonical(), i))
        w = w.exact_div(gi)
        y = z.exact_div(gi)
        z = y - w.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic in GF(p)[x] (ascending coefficient tuples)
# ---------------------------------------------------------------------------

def _gf_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _gf_from_poly(p: Poly, m: int):
    return _gf_trim(tuple(c % m for c in p.coeffs))


def _gf_sub(a, b, m):
    n = max(len(a), len(b))
    return _gf_trim(tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m
                          for i in range(n)))


def _gf_mul(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _gf_trim(tuple(out))


def _gf_divmod(a, b, p):
    """Division in GF(p)[x]; p prime so the leading coefficient inverts."""
    if not b:
        raise ZeroDivisionError("gf division by zero")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return (), _gf_trim(tuple(rem))
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = (rem[k + len(b) - 1] * inv) % p
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % p
    return _gf_trim(tuple(quo)), _gf_trim(tuple(rem[: len(b) - 1]))


def _gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple((c * inv) % p for c in a)


def _gf_gcd(a, b, p):
    while b:
        _, r = _gf_divmod(a, b, p)
        a, b = b, r
    return _gf_monic(a, p)


def _gf_gcdex(a, b, p):
    """Extended Euclid: returns (s, t, g) monic g with s*a + t*b = g in GF(p)[x]."""
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    r0, r1 = a, b
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if not r0:
        return s0, t0, r0
    inv = pow(r0[-1], -1, p)
    scale = lambda u: _gf_trim(tuple((c * inv) % p for c in u))
    return scale(s0), scale(t0), scale(r0)


def _gf_pow_mod(a, n, g, p):
    out = (1,)
    base = _gf_divmod(a, g, p)[1]
    while n:
        if n & 1:
            out = _gf_divmod(_gf_mul(out, base, p), g, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), g, p)[1]
        n >>= 1
    return out


def _nullspace_mod_p(mat, p):
    """Basis of the nullspace of a square matrix over GF(p) (RREF, deterministic)."""
    n = len(mat)
    a = [list(row) for row in mat]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if a[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] % p:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    basis = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = (-a[r][free]) % p
        basis.append(tuple(v))
    return basis


def _berlekamp(g, p):
    """Monic irreducible factors of a monic squarefree g in GF(p)[x]."""
    n = len(g) - 1
    if n <= 1:
        return [g]
    xp = _gf_pow_mod((0, 1), p, g, p)
    rows = []
    r = (1,)
    for _ in range(n):
        rows.append(tuple(r[i] if i < len(r) else 0 for i in range(n)))
        r = _gf_divmod(_gf_mul(r, xp, p), g, p)[1]
    # v(x)^p = v(x) mod g  <=>  (Q^T - I) v = 0 with Q rows = x^{p i} mod g
    qt = [[rows[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        qt[i][i] = (qt[i][i] - 1) % p
    basis = _nullspace_mod_p(qt, p)
    r_count = len(basis)
    if r_count == 1:
        return [g]
    factors = [g]
    for v in basis:
        vpoly = _gf_trim(tuple(v))
        if len(vpoly) <= 1:
            continue  # constants never split anything
        for a_val in range(p):
            if len(factors) == r_count:
                return factors
            shifted = _gf_sub(vpoly, (a_val,), p)
            next_factors = []
            for u in factors:
                if len(u) - 1 <= 1:
                    next_factors.append(u)
                    continue
                d = _gf_gcd(u, shifted, p)
                if 0 < len(d) - 1 < len(u) - 1:
                    next_factors.append(d)
                    next_factors.append(_gf_monic(_gf_divmod(u, d, p)[0], p))
                else:
                    next_factors.append(u)
            factors = next_factors
    assert len(factors) == r_count, "Berlekamp splitting incomplete"
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination
# ---------------------------------------------------------------------------

def _sym(c: int, m: int) -> int:
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _sym_poly(p: Poly, m: int) -> Poly:
    return Poly([_sym(c, m) for c in p.coeffs])


def _divmod_monic_mod(a: Poly, b: Poly, m: int) -> tuple[Poly, Poly]:
    """divmod by a monic b in (Z/m)[x], symmetric representatives."""
    assert b.leading % m == 1
    rem = [c % m for c in a.coeffs]
    dq = len(a.coeffs) - len(b.coeffs)
    if dq < 0:
        return Poly(), _sym_poly(a, m)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + b.degree] % m
        quo[k] = c
        if c:
            for j, y in enumerate(b.coeffs):
                rem[k + j] = (rem[k + j] - c * y) % m
    return _sym_poly(Poly(quo), m), _sym_poly(Poly(rem[: b.degree]), m)


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: lifts f = g*h and s*g + t*h = 1 mod m to mod m^2."""
    mm = m * m
    e = _sym_poly(f - g * h, mm)
    q, r = _divmod_monic_mod(s * e, h, mm)
    g1 = _sym_poly(g + t * e + q * g, mm)
    h1 = _sym_poly(h + r, mm)
    b = _sym_poly(s * g1 + t * h1 - Poly([1]), mm)
    c, d = _divmod_monic_mod(s * b, h1, mm)
    s1 = _sym_poly(s - d, mm)
    t1 = _sym_poly(t - t * b - c * g1, mm)
    return g1, h1, s1, t1


def _hensel_lift(p, f, modular_factors, l):
    """Lift f = lc(f) * prod(modular_factors) (mod p) to mod p^l.

    modular_factors are monic GF(p) polynomials; returns monic integer
    polynomials mod p^l with symmetric coefficients.
    """
    r = len(modular_factors)
    lc = f.leading
    pl = p ** l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_sym_poly(f * inv, pl)]
    k = r // 2
    d = max(math.ceil(math.log2(l)), 1) if l > 1 else 0
    g = (lc % p,)
    for mf in modular_factors[:k]:
        g = _gf_mul(g, mf, p)
    h = (1,)
    for mf in modular_factors[k:]:
        h = _gf_mul(h, mf, p)
    s, t, one = _gf_gcdex(g, h, p)
    assert one == (1,), "modular factors not coprime"
    to_int = lambda u: Poly([_sym(c, p) for c in u])
    gi, hi, si, ti = to_int(g), to_int(h), to_int(s), to_int(t)
    m = p
    for _ in range(d):
        gi, hi, si, ti = _hensel_step(m, f, gi, hi, si, ti)
        m = m * m
    return (_hensel_lift(p, _sym_poly(gi, pl), modular_factors[:k], l)
            + _hensel_lift(p, _sym_poly(hi, pl), modular_factors[k:], l))


def _odd_primes():
    """3, 5, 7, 11, ... without end."""
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _factor_squarefree(f: Poly) -> list[Poly]:
    """Irreducible factorization of a primitive squarefree f with positive lc."""
    if f.degree <= 1:
        return [f]
    lc = f.leading
    height = max(abs(c) for c in f.coeffs)
    # Landau-Mignotte style bound on factor coefficients
    bound = (math.isqrt(f.degree + 1) + 1) * (2 ** f.degree) * height * abs(lc)
    # only the finitely many primes dividing lc * disc(f) are unsuitable
    for p in _odd_primes():
        if lc % p == 0:
            continue
        fp = _gf_monic(_gf_from_poly(f, p), p)
        dfp = _gf_trim(tuple((i * c) % p for i, c in enumerate(fp))[1:])
        if not dfp or len(_gf_gcd(fp, dfp, p)) - 1 != 0:
            continue
        break
    modular = sorted(_berlekamp(fp, p), key=lambda u: (len(u), u))
    if len(modular) == 1:
        return [f]
    l = 1
    while p ** l <= 2 * bound:
        l += 1
    pl = p ** l
    lifted = _hensel_lift(p, f, modular, l)
    lifted = sorted(lifted, key=lambda q: (q.degree, q.coeffs))

    found = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for subset in itertools.combinations(remaining, size):
            cand = Poly([current.leading])
            for i in subset:
                cand = _sym_poly(cand * lifted[i], pl)
            cand = cand.canonical()
            if cand.degree < 1:
                continue
            q, r = divmod(current, cand)
            if r.is_zero and q.is_integral:
                found.append(cand)
                current = q
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if current.degree >= 1:
        found.append(current.canonical())
    else:
        assert current.coeffs == (1,), "leftover unit after recombination"
    return found


# ---------------------------------------------------------------------------
# factorization report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    poly: Poly
    multiplicity: int
    positive_real_roots: int
    negative_real_roots: int
    real_roots: int


@dataclass(frozen=True)
class FactorReport:
    """Complete irreducible factorization over Q with per-factor root counts.

    content * prod(factor.poly ** factor.multiplicity) reconstructs the input
    exactly; factors are primitive with positive leading coefficient, sorted
    by degree then ascending coefficient tuple.
    """

    input: Poly
    content: Fraction
    factors: tuple[Factor, ...]

    def reconstruct(self) -> Poly:
        out = Poly([self.content])
        for fac in self.factors:
            out = out * fac.poly ** fac.multiplicity
        return out

    @property
    def has_rational_root(self) -> bool:
        return any(f.poly.degree == 1 for f in self.factors)

    @property
    def all_factors_have_positive_root(self) -> bool:
        return not self.some_factor_all_lambda

    @property
    def some_factor_all_lambda(self) -> bool:
        """True iff some irreducible factor has no root in (0, oo)."""
        return any(f.positive_real_roots == 0 for f in self.factors)


def factor_over_Q(p: Poly) -> FactorReport:
    """Irreducible factorization over Q of the primitive part, with root counts."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    c = p.content()
    if p.leading < 0:
        c = -c
    pp = p.canonical()
    factors = []
    for sq_factor, mult in squarefree_decomposition(pp):
        for irr in _factor_squarefree(sq_factor):
            factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].key())
    entries = tuple(Factor(poly, mult, *_root_counts(poly)) for poly, mult in factors)
    return FactorReport(input=p, content=Fraction(c), factors=entries)


# ---------------------------------------------------------------------------
# Sturm chains and root counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SturmChain:
    """Content-normalized signed remainder sequence of p and p'."""

    polys: tuple[Poly, ...]

    @classmethod
    def build(cls, p: Poly) -> "SturmChain":
        if p.is_zero:
            raise ZeroPolynomialError("Sturm chain of zero polynomial")
        chain = [p.primitive()]
        d = p.derivative()
        if not d.is_zero:
            chain.append(d.primitive())
            while True:
                _, r = divmod(chain[-2], chain[-1])
                if r.is_zero:
                    break
                chain.append((-r).primitive())
        if chain[-1].degree >= 1:
            raise NonSquarefreeError("Sturm count requires a squarefree polynomial")
        return cls(tuple(chain))

    def _variations(self, signs) -> int:
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    def variations_at(self, x) -> int:
        return self._variations([_sign_of(q(Fraction(x))) for q in self.polys])

    def variations_at_pos_inf(self) -> int:
        return self._variations([_sign_of(q.leading) for q in self.polys])

    def variations_at_neg_inf(self) -> int:
        return self._variations(
            [_sign_of(q.leading) * (-1) ** q.degree for q in self.polys])


def _sign_of(x) -> int:
    return (x > 0) - (x < 0)


def sturm_count(p: Poly, lo=None, hi=None) -> int:
    """Distinct real roots of squarefree p in (lo, hi]; None means -/+ infinity.

    Raises NonSquarefreeError if p is not squarefree.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if p.degree < 1:
        return 0
    chain = SturmChain.build(p)
    va = chain.variations_at(lo) if lo is not None else chain.variations_at_neg_inf()
    vb = chain.variations_at(hi) if hi is not None else chain.variations_at_pos_inf()
    return va - vb


def count_real_roots(p: Poly) -> int:
    return sturm_count(p, None, None)


def count_positive_roots(p: Poly) -> int:
    """Distinct roots in the open interval (0, oo)."""
    return sturm_count(p, 0, None)


def count_negative_roots(p: Poly) -> int:
    """Distinct roots in the open interval (-oo, 0)."""
    return _root_counts(p)[1]


def _root_counts(p: Poly) -> tuple[int, int, int]:
    """Distinct (positive, negative, real) roots of squarefree p, one Sturm chain."""
    if p.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if p.degree < 1:
        return 0, 0, 0
    chain = SturmChain.build(p)
    below = chain.variations_at_neg_inf()
    at_zero = chain.variations_at(0)
    above = chain.variations_at_pos_inf()
    # (-oo, 0] includes a root at 0; the open interval (-oo, 0) must not
    root_at_zero = p.constant == 0
    return at_zero - above, below - at_zero - root_at_zero, below - above


# ---------------------------------------------------------------------------
# rational roots and derived predicates
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots with multiplicity, by divisor enumeration.

    Roots at 0 come first, then candidates in order of increasing numerator
    and denominator, positive sign before negative.
    """
    if p.is_zero:
        raise ZeroPolynomialError("rational roots of zero polynomial")
    q = p.primitive()
    den = 1
    for c in q.coeffs:
        if isinstance(c, Fraction):
            den = den * c.denominator // math.gcd(den, c.denominator)
    q = Poly([c * den for c in q.coeffs])
    roots: list[Fraction] = []
    while q.degree >= 1 and q.constant == 0:
        roots.append(Fraction(0))
        q = Poly(q.coeffs[1:])
    if q.degree < 1:
        return roots
    seen = set()
    for num in _divisors(q.constant):
        for d in _divisors(q.leading):
            if math.gcd(num, d) != 1:
                continue
            for s in (1, -1):
                cand = Fraction(s * num, d)
                if cand in seen:
                    continue
                seen.add(cand)
                if q(cand) != 0:
                    continue
                linear = Poly([-s * num, d])
                while True:
                    try:
                        nxt = q.exact_div(linear)
                    except ValueError:
                        break
                    roots.append(cand)
                    q = nxt
                    if q(cand) != 0:
                        break
    return roots


def has_positive_real_root(p: Poly) -> bool:
    """True iff p has at least one real root in (0, oo)."""
    if p.is_zero:
        raise ZeroPolynomialError("root predicate on zero polynomial")
    if p.degree < 1:
        return False
    return count_positive_roots(squarefree_part(p)) >= 1


def all_roots_positive_real(p: Poly) -> bool:
    """True iff every root of p (with multiplicity) is real and positive."""
    if p.is_zero:
        raise ZeroPolynomialError("root predicate on zero polynomial")
    total = 0
    for factor, mult in squarefree_decomposition(p):
        total += mult * count_positive_roots(factor)
    return total == p.degree
