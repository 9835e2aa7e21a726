"""Exact integer linear algebra and univariate polynomial algebra.

Everything here is exact: matrices and polynomials hold Python big
integers, and real-root counts come from Sturm chains, or at degree <= 3 from
the discriminant's sign and Descartes' rule, rather than floating point.
Gcds and Sturm chains read one primitive pseudo-remainder sequence,
_remainders (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R): a gcd is its last
entry, a Sturm chain all of it.  Exact divisions stay in Z[x] (Gauss's
lemma: every divisor there is primitive), so the analysis builds no Fraction;
only rational_roots does, and it imports `fractions` itself, so the analysis
never loads it.  The pieces fit together as

    power_sums          -- p_e of a monic polynomial's roots: Newton's
                           identities up to its degree, then its recurrence;
                           on char(A) these are tr(A^e) at every e
    char_poly           -- Newton's identities on tr(A^j), j <= n, from the
                           powers up to A^ceil(n/2), every division exact;
                           det(A) = (-1)^n char(A)(0) is read off it
    squarefree_decomposition -- Yun's algorithm
    factor_over_Q       -- of a polynomial, or of the product of pieces, each
                           piece on its own and equal factors merged;
                           x - 1 and x + 1 divided off first, by synthetic
                           division while f(+-1), a coefficient sum, is 0,
                           then every irreducible in the record of one
                           analysis (one Sturm chain each per record at
                           degree >= 4; degree <= 3 read off the discriminant
                           and Descartes' rule); a unit cofactor of degree
                           <= 4, and a squarefree part of degree <= 4 of a
                           unit polynomial, is read in closed form
                           (irreducible up to degree 3, a quartic 2 + 2 with
                           constant terms +-1 or irreducible), and a unit
                           sextic that is the exterior square of a quartic
                           in the record splits along that quartic's
                           resolvent cubic; other parts go
                           through distinct- and equal-degree splitting mod p
                           (Cantor-Zassenhaus), Hensel lifting to exactly p^l
                           and Zassenhaus subset recombination (at half size
                           only the subsets that hold the first factor; a
                           subset's product formed only when it passes the
                           trace test, Abbott-Shoup-Zimmermann, ISSAC 2000),
                           all three on Poly: (Z/m)[x] is
                           Z[x] arithmetic followed by `% m`, plus division,
                           gcd, extended gcd, powers and monic mod m
    factor_report       -- the report of prod q^m from certified irreducible
                           q and their multiplicities, with no factoring:
                           the product by Kronecker substitution, root
                           counts from the analysis's record
    galois_certificate, orbit_polynomial
                        -- the group of an irreducible block (S2, S3, S4, A4,
                           or D4 for a palindromic quartic) and, for one
                           Galois orbit of the monomials in its roots, keyed
                           by its exponents, the orbit's minimal polynomial,
                           from power sums
    cyclotomic          -- Phi_d from the Ramanujan sums, its power sums;
                           cyclotomic_index(f) is d when f = Phi_d
    sturm_count         -- sign variations of a Sturm chain whose entries are
                           the primitive parts of the signed remainders
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from ._record import Record


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class NonSquarefreeError(ValueError):
    """Raised when a Sturm count is requested for a non-squarefree polynomial."""


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with exact coefficients, stored ascending.

    Coefficients are Python ints.  Trailing zeros are stripped so the
    leading coefficient is nonzero unless the polynomial is zero (empty
    coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        self.coeffs = cs

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
        return Poly([a + b for a, b in
                     itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other):
        return Poly([a - b for a, b in
                     itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
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

    def __mod__(self, m: int) -> "Poly":
        """The image in (Z/m)[x]: each coefficient reduced into [0, m)."""
        return Poly([c % m for c in self.coeffs])

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

    def pseudo_rem(self, other) -> "Poly":
        """lc(other)^(d+1) * self mod other in Z[x], d = deg self - deg other."""
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        b = other.coeffs
        db = len(b) - 1
        lead = b[-1]
        rem = list(self.coeffs)
        for k in range(len(rem) - 1 - db, -1, -1):
            c = rem.pop()
            if lead != 1:
                rem = [x * lead for x in rem]
            if c:
                for j in range(db):
                    rem[k + j] -= c * b[j]
        return Poly(rem)

    def div_z(self, other):
        """Quotient in Z[x], or None when other does not divide self in Z[x]."""
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        b = other.coeffs
        db = len(b) - 1
        lead = b[-1]
        rem = list(self.coeffs)
        dq = len(rem) - 1 - db
        if dq < 0:
            return None if rem else Poly()
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c, r = divmod(rem[k + db], lead)
            if r:
                return None
            quo[k] = c
            if c:
                for j in range(db):
                    rem[k + j] -= c * b[j]
        return None if any(rem[:db]) else Poly(quo)

    def exact_div(self, other) -> "Poly":
        """Division in Z[x] known to be exact; raises if it is not."""
        q = self.div_z(other)
        if q is None:
            raise ValueError("exact_div with nonzero remainder")
        return q

    # -- content and normalization -------------------------------------------

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive(self) -> "Poly":
        """Primitive part with the sign of the leading coefficient kept."""
        c = self.content()
        if c <= 1:
            return self
        return Poly([x // c for x in self.coeffs])

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

class IntMatrix(Record):
    """Square matrix of exact integers, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        d = len(rows)
        if d < 1:
            raise ValueError("matrix dimension must be >= 1")
        for row in rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
        super().__init__(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols)
            for row in self.rows))


def power_sums(f: Poly, count: int) -> list[int]:
    """[p_0, p_1, ..., p_count], p_e the e-th power sum of the roots of a monic
    f = x^n + c_1 x^(n-1) + ... + c_n, so p_0 = n: Newton's identities
    p_e = -(e c_e + c_1 p_(e-1) + ... + c_(e-1) p_1) up to e = n, then the
    linear recurrence p_e = -(c_1 p_(e-1) + ... + c_n p_(e-n))."""
    if f.is_zero or f.leading != 1:
        raise ValueError("power sums need a monic polynomial")
    n = f.degree
    c = f.coeffs[::-1]  # c[i] = c_i
    sums = [n]
    for e in range(1, count + 1):
        total = e * c[e] if e <= n else 0
        for i in range(1, min(e - 1, n) + 1):
            total += c[i] * sums[e - i]
        sums.append(-total)
    return sums


def poly_from_power_sums(sums) -> Poly:
    """Monic polynomial x^d + c_1 x^(d-1) + ... + c_d whose roots have power
    sums sums = [p_1, ..., p_d], by Newton's identities
    i c_i = -(p_i + c_1 p_(i-1) + ... + c_(i-1) p_1); each division is asserted exact."""
    c = [1]
    for i in range(1, len(sums) + 1):
        total = sum(map(operator.mul, reversed(c), sums))  # c_(i-j) p_j, j = 1..i
        assert total % i == 0, "Newton identity division must be exact"
        c.append(-(total // i))
    return Poly(reversed(c))


def char_poly(a: IntMatrix) -> Poly:
    """Monic characteristic polynomial det(lambda*I - A): Newton's identities
    on tr(A^j), j = 1..n, n = dim A, from the powers A, A^2, ..., A^h only,
    h = ceil(n/2): for b <= n - h, tr(A^(h+b)) = sum over i, k of
    (A^h)_ik (A^b)_ki, row i of A^h times column i of A^b."""
    n, h = a.dim, (a.dim + 1) // 2
    powers = list(itertools.accumulate(itertools.repeat(a, h), operator.matmul))
    top = powers[-1].rows
    sums = [sum(p.rows[i][i] for i in range(n)) for p in powers]
    sums += [sum(sum(map(operator.mul, row, col)) for row, col in zip(top, zip(*p.rows)))
             for p in powers[:n - h]]
    return poly_from_power_sums(sums)


# ---------------------------------------------------------------------------
# gcd, squarefree decomposition
# ---------------------------------------------------------------------------

def _remainders(a: Poly, b: Poly) -> list[Poly]:
    """Primitive parts of a, b and of the negated remainders until one is zero.

    prem(a, b) = lc(b)^(d+1) * rem(a, b), so -sign(lc(b))^(d+1) * prem is a
    positive multiple of -rem(a, b): same entries as Euclid over Q.
    """
    chain = [a.primitive(), b.primitive()]
    while True:
        a, b = chain[-2], chain[-1]
        r = a.pseudo_rem(b)
        if r.is_zero:
            return chain
        if b.leading > 0 or (a.degree - b.degree) % 2:
            r = -r
        chain.append(r.primitive())


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient: the last remainder."""
    return _remainders(p, q)[-1].canonical() if not q.is_zero else p.canonical()


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
        gi = poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi, i))
        w = w.exact_div(gi)
        y = z.exact_div(gi)
        z = y - w.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# (Z/m)[x] = Z[x]/(m): Poly arithmetic followed by `% m`.  The kernels below
# are what Z[x] lacks: division by a divisor whose leading coefficient
# inverts mod m (any m when the divisor is monic), and gcd, extended gcd,
# powers mod g and the monic associate, which need m prime
# ---------------------------------------------------------------------------

def _divmod_mod(a: Poly, b: Poly, m: int) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b in (Z/m)[x], coefficients in [0, m);
    lc(b) must invert mod m."""
    if b.is_zero:
        raise ZeroPolynomialError("polynomial division by zero")
    bs = b.coeffs
    db = len(bs) - 1
    inv = pow(bs[-1], -1, m)
    rem = [c % m for c in a.coeffs]
    dq = len(rem) - 1 - db
    if dq < 0:
        return Poly(), Poly(rem)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] * inv % m
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] = (rem[k + j] - c * bs[j]) % m
    return Poly(quo), Poly(rem[:db])


def _monic_mod(a: Poly, m: int) -> Poly:
    """a times the inverse of its leading coefficient, mod m."""
    return a * pow(a.leading, -1, m) % m if a else a


def _gcd_mod(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd in GF(p)[x]."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _gcdex_mod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: (s, t, g), g monic, with s*a + t*b = g in GF(p)[x]."""
    s0, s1 = Poly([1]), Poly()
    t0, t1 = Poly(), Poly([1])
    r0, r1 = a, b
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, (s0 - q * s1) % p
        t0, t1 = t1, (t0 - q * t1) % p
    inv = pow(r0.leading, -1, p)
    return s0 * inv % p, t0 * inv % p, r0 * inv % p


def _pow_mod(a: Poly, n: int, g: Poly, p: int) -> Poly:
    """a^n mod g in GF(p)[x], by repeated squaring."""
    out = Poly([1])
    base = _divmod_mod(a, g, p)[1]
    while n:
        if n & 1:
            out = _divmod_mod(out * base, g, p)[1]
        base = _divmod_mod(base * base, g, p)[1]
        n >>= 1
    return out


def _distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """[(g, d)]: g is the product of the degree-d irreducible factors of a monic
    squarefree f in GF(p)[x], since x^(p^d) - x is the product of all monic
    irreducibles of degree dividing d."""
    out = []
    x = xpd = Poly([0, 1])
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        xpd = _pow_mod(xpd, p, f, p)
        g = _gcd_mod(f, (xpd - x) % p, p)
        if g.degree > 0:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            xpd = _divmod_mod(xpd, f, p)[1]
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree(g: Poly, d: int, p: int, rng) -> list[Poly]:
    """Monic irreducible factors, all of degree d, of a monic squarefree g in
    GF(p)[x], p odd: for random a, gcd(g, a^((p^d - 1)/2) - 1) is a proper
    factor with probability about 1/2 (Cantor-Zassenhaus)."""
    if g.degree == d:
        return [g]
    while True:
        a = Poly([rng.randrange(p) for _ in range(g.degree)])
        u = _gcd_mod(g, (_pow_mod(a, (p ** d - 1) // 2, g, p) - Poly([1])) % p, p)
        if 0 < u.degree < g.degree:
            return (_equal_degree(u, d, p, rng)
                    + _equal_degree(_divmod_mod(g, u, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination
# ---------------------------------------------------------------------------

def _hensel_step(f, g, h, s, t, mm):
    """One quadratic Hensel step (von zur Gathen-Gerhard, Alg. 15.10): lifts
    f = g*h and s*g + t*h = 1 mod m, h monic, to mod mm, for any mm with
    m | mm | m^2 (the lift mod m^2 reduced mod mm)."""
    e = (f - g * h) % mm
    q, r = _divmod_mod(s * e, h, mm)
    g1 = (g + t * e + q * g) % mm
    h1 = (h + r) % mm
    b = (s * g1 + t * h1 - Poly([1])) % mm
    c, d = _divmod_mod(s * b, h1, mm)
    s1 = (s - d) % mm
    t1 = (t - t * b - c * g1) % mm
    return g1, h1, s1, t1


def _hensel_lift(p: int, f: Poly, modular_factors: list[Poly], pl: int) -> list[Poly]:
    """Lift f = lc(f) * prod(modular_factors) (mod p) to mod pl, a power of p.

    f is known mod pl, modular_factors are monic in GF(p)[x]; returns their
    monic lifts mod pl, coefficients in [0, pl), in the same order.
    """
    r = len(modular_factors)
    if r == 1:
        return [_monic_mod(f, pl)]
    k = r // 2
    h = Poly([1])
    for mf in modular_factors[k:]:
        h = h * mf % p
    g = _divmod_mod(f, h, p)[0]  # f = g*h mod p and h is monic
    s, t, one = _gcdex_mod(g, h, p)
    assert one == Poly([1]), "modular factors not coprime"
    m = p
    while m < pl:
        m = min(m * m, pl)
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return (_hensel_lift(p, g, modular_factors[:k], pl)
            + _hensel_lift(p, h, modular_factors[k:], pl))


def _odd_primes():
    """3, 5, 7, 11, ... without end (_equal_degree needs p odd)."""
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
    # Cauchy: every root z of f has |z| < 1 + max|a_i| / |lc| <= radius
    radius = 2 + height // abs(lc)
    # only the finitely many primes dividing lc * disc(f) are unsuitable
    for p in _odd_primes():
        if lc % p:
            fp = _monic_mod(f, p)
            dfp = fp.derivative() % p
            if dfp and _gcd_mod(fp, dfp, p).degree == 0:
                break
    rng = random.Random(p)  # the draws change the work done, never the factors
    modular = sorted((u for g, d in _distinct_degree(fp, p)
                      for u in _equal_degree(g, d, p, rng)), key=Poly.key)
    if len(modular) == 1:
        return [f]
    pl = p
    while pl <= 2 * bound:  # bound >= |lc| deg f radius, as the trace test needs
        pl *= p
    lifted = _hensel_lift(p, f, modular, pl)
    found = []
    current = f
    size = 1
    while 2 * size <= len(lifted):
        subsets = itertools.combinations(range(len(lifted)), size)
        if 2 * size == len(lifted):
            # a subset and its complement make the same split, and the
            # subsets that hold index 0 come first: try only those
            subsets = itertools.islice(subsets, math.comb(len(lifted) - 1, size - 1))
        lead = current.leading
        # trace test: a true factor of degree D has x^(D-1) coefficient -lead
        # times the sum of its D roots, so at most |lead| D radius in size;
        # mod pl it is lead times the sum of the lifts' second coefficients
        traces = [lead * u.coeffs[-2] % pl for u in lifted]
        limits = [abs(lead) * u.degree * radius for u in lifted]
        for subset in subsets:
            trace = sum(map(traces.__getitem__, subset)) % pl
            if min(trace, pl - trace) > sum(map(limits.__getitem__, subset)):
                continue
            cand = Poly([lead])
            for i in subset:
                cand = cand * lifted[i] % pl
            # the integer candidate has its residues in (-pl/2, pl/2]
            cand = Poly([c - pl if 2 * c > pl else c for c in cand.coeffs]).canonical()
            q = current.div_z(cand)
            if q is not None:
                found.append(cand)
                current = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    # each subset removed is at most half the remaining lifted factors, so
    # current keeps at least one of them: deg current >= 1
    found.append(current.canonical())
    return found


# ---------------------------------------------------------------------------
# factorization report
# ---------------------------------------------------------------------------

class Factor(Record):
    poly: Poly
    multiplicity: int
    positive_real_roots: int
    negative_real_roots: int
    real_roots: int


class FactorReport(Record):
    """Complete irreducible factorization over Q with per-factor root counts.

    content * prod(factor.poly ** factor.multiplicity) reconstructs the input
    exactly; content is the int gcd of the input's coefficients, signed like
    the input's leading coefficient; factors are primitive with positive
    leading coefficient, sorted by degree then ascending coefficient tuple.
    """

    input: Poly
    content: int
    factors: tuple[Factor, ...]

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


def factor_over_Q(*pieces: Poly, known: dict | None = None) -> FactorReport:
    """Irreducible factorization over Q of the primitive part of the product
    p of the pieces, with root counts; factor_over_Q(p) takes p whole.

    Each piece is factored on its own and the multiplicities of equal factors
    are added, so the report is the one of p by unique factorization in
    Z[x].  Every factor, however many pieces share it, gets its root counts
    once: a Sturm chain at degree >= 4, discriminant and Descartes' rule below.

    known, when given, is the record of one analysis: each irreducible found
    so far maps to its (positive, negative, real) root counts.  A piece is
    divided by every known irreducible, as often as it divides, and only the
    cofactor is factored; its new irreducibles join the record.  So a factor
    that comes back at a later level, or in a later piece, is found by trial
    division and gets no second Yun pass, Zassenhaus search or Sturm chain.
    Without a record each call starts from none.

    A level polynomial is the characteristic polynomial of a matrix in GL(Z),
    so it is a unit polynomial: leading and constant coefficient are +-1, and
    its only possible rational roots are +-1.  The factors x - 1 and x + 1
    are divided off first, each as often as it divides.  When what is left is
    a unit polynomial, it and its squarefree parts have no rational root, so
    one of degree <= 3 is irreducible (a reducible one would have a linear
    factor) and one of degree 4 is irreducible or two quadratics with
    constant terms +-1, read off its coefficients.  A unit cofactor of
    degree <= 4 takes no Yun pass.  Nor does a unit sextic that is the
    exterior square of a unit quartic f in the record, as level 1 of a rank-4
    fiber whose char(M) is f: it splits along the resolvent cubic of f.  Only
    other parts of degree >= 5, and every part of a non-unit input, take the
    modular route of _factor_squarefree.
    """
    p = math.prod(pieces[1:], start=pieces[0])
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if known is None:
        known = {}
    multiplicity: dict[Poly, int] = {}
    for piece in pieces:
        for irr, mult in _factor_canonical(piece.canonical(), known):
            multiplicity[irr] = multiplicity.get(irr, 0) + mult
    return _report(p, multiplicity, known)


def factor_report(factors: dict[Poly, int], known: dict) -> FactorReport:
    """The report of p = prod q^m over the irreducible q, primitive with
    positive leading coefficient, and multiplicities m of factors, which the
    caller has certified (lcs.level_factors), so nothing is factored; each q
    takes its root counts from known, the record of one analysis (see
    factor_over_Q), which it extends.

    p is formed by Kronecker substitution: every coefficient of p is at most
    B = prod ||q||_1^m in size, so with 2^(s-1) > B, p(2^s) is the integer
    product of the q(2^s)^m, and p's coefficients are its base-2^s digits,
    each taken in [-2^(s-1), 2^(s-1))."""
    shift = math.prod(sum(map(abs, q.coeffs)) ** m for q, m in factors.items()).bit_length() + 1
    value = math.prod(sum(c << shift * i for i, c in enumerate(q.coeffs)) ** m
                      for q, m in factors.items())
    half, mask, coeffs = 1 << (shift - 1), (1 << shift) - 1, []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << shift
        coeffs.append(digit)
        value = (value - digit) >> shift
    return _report(Poly(coeffs), factors, known)


def _report(p: Poly, multiplicity: dict[Poly, int], known: dict) -> FactorReport:
    """The report of p from its irreducible factors and their multiplicities,
    each factor's root counts taken from the record known, or counted once
    and entered there."""
    c = p.content()
    if p.leading < 0:
        c = -c
    for poly in multiplicity:
        if poly not in known:
            known[poly] = _root_counts(poly)
    entries = tuple(Factor(poly, multiplicity[poly], *known[poly])
                    for poly in sorted(multiplicity, key=Poly.key))
    return FactorReport(p, c, entries)


_X_MINUS_PLUS_1 = (Poly([-1, 1]), Poly([1, 1]))


def _factor_canonical(rest: Poly, known) -> list[tuple[Poly, int]]:
    """Irreducible factors with multiplicities of a canonical rest, unsorted:
    x - 1 and x + 1 by synthetic division, each while rest(1), the
    coefficient sum, or rest(-1), the alternating sum, is 0; then the other
    known irreducibles by trial division, then the cofactor's own.  One that
    is the exterior square of a unit quartic in the record is read by
    _exterior_square_factors.  Otherwise its parts are the cofactor itself
    when it is a unit of degree <= 4, with no Yun pass, and its squarefree
    parts else; a unit part of degree <= 4 is read by _unit_factors, any
    other by _factor_squarefree."""
    factors = []
    for root in (1, -1):
        mult = 0
        while not sum(rest.coeffs[::2]) + root * sum(rest.coeffs[1::2]):
            rest = _divide_linear(rest, root)[0]
            mult += 1
        if mult:
            factors.append((Poly([-root, 1]), mult))
    for irr in known:
        if irr in _X_MINUS_PLUS_1:  # divided off above
            continue
        mult = 0
        while irr.degree <= rest.degree and (quotient := rest.div_z(irr)) is not None:
            rest = quotient
            mult += 1
        if mult:
            factors.append((irr, mult))
    if rest.degree < 1:
        return factors
    if rest.degree == 6 and (split := _exterior_square_factors(rest, known)) is not None:
        return factors + split
    unit = rest.leading == 1 and rest.constant in (1, -1)
    parts = [(rest, 1)] if unit and rest.degree <= 4 else squarefree_decomposition(rest)
    for sq_factor, mult in parts:
        if unit and sq_factor.degree <= 4:
            factors.extend((irr, mult * m) for irr, m in _unit_factors(sq_factor))
        else:
            factors.extend((irr, mult) for irr in _factor_squarefree(sq_factor))
    return factors


def _unit_factors(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factors with multiplicities of a unit f (leading 1,
    constant +-1) of degree <= 4 with no root +-1.  Its factors are unit
    polynomials, and a rational root would be +-1, so f has no linear factor:
    up to degree 3 it is irreducible, and a quartic
    x^4 + a x^3 + b x^2 + c x + e is irreducible unless it is
    (x^2 + p x + q)(x^2 + r x + s) with q s = e, that is
    p + r = a, q + s + p r = b and p s + q r = c.  For e = 1, q = s = t is
    +-1, so c = t a and p, r are the roots of z^2 - a z + b - 2t, whose
    discriminant a^2 - 4b + 8t must be a square; for e = -1, q = 1 and
    s = -1 give p = (a - c)/2 and r = (a + c)/2, with p r = b."""
    if f.degree <= 3:
        return [(f, 1)]
    e, c, b, a, _ = f.coeffs
    if e == 1:
        for t in (1, -1):
            disc = a * a - 4 * b + 8 * t
            if c == t * a and disc >= 0 and (root := math.isqrt(disc)) ** 2 == disc:
                if not root:
                    return [(Poly([t, a // 2, 1]), 2)]
                return [(Poly([t, (a - root) // 2, 1]), 1), (Poly([t, (a + root) // 2, 1]), 1)]
    elif (a - c) % 2 == 0 and (a - c) // 2 * ((a + c) // 2) == b:
        return [(Poly([1, (a - c) // 2, 1]), 1), (Poly([-1, (a + c) // 2, 1]), 1)]
    return [(f, 1)]


def _exterior_square_factors(rest: Poly, known) -> list[tuple[Poly, int]] | None:
    """Irreducible factors of rest when it is the exterior square of a unit
    quartic f = x^4 + a x^3 + b x^2 + c x + e in the record, the polynomial
    whose roots are the six products of two of f's roots; None otherwise.
    rest has no root +-1.  The products pair off as l1 l2 and l3 l4 = e / (l1 l2),
    and so on, and the three pair sums are the roots of the resolvent cubic
    R(y) = y^3 - b y^2 + (a c - 4e) y - (a^2 e - 4b e + c^2), so the exterior
    square is x^3 R(x + e/x) (Kappe-Warren, Amer. Math. Monthly 96, 1989).
    An integer root r of R splits off x^2 - r x + e, irreducible since it
    has no root +-1, and _unit_factors splits the quartic cofactor.  When R
    has no rational root, Gal(f) is A4 or S4, which is transitive on the six
    products, and these are distinct, so the exterior square is irreducible."""
    for f in known:
        if f.degree != 4 or f.leading != 1 or f.constant not in (1, -1):
            continue
        e = f.constant
        resolvent = _resolvent_cubic(f)
        w, v, u, _ = resolvent.coeffs
        if rest.coeffs != (e, u, 3 + e * v, 2 * e * u + w, 3 * e + v, u, 1):
            continue
        roots = _integer_roots(resolvent)
        if not roots:
            return [(rest, 1)]
        quadratic = Poly([e, -roots[0], 1])
        return [(quadratic, 1)] + _unit_factors(rest.exact_div(quadratic))
    return None


def _resolvent_cubic(f: Poly) -> Poly:
    """The resolvent cubic y^3 + u y^2 + v y + w of a monic quartic
    f = x^4 + a x^3 + b x^2 + c x + e, whose roots are the pair sums
    l1 l2 + l3 l4, l1 l3 + l2 l4 and l1 l4 + l2 l3 of f's roots:
    u = -b, v = a c - 4e, w = -(a^2 e - 4b e + c^2) (Kappe-Warren, Amer.
    Math. Monthly 96, 1989).  Its differences are the products
    (l1 - l4)(l2 - l3), ..., so its discriminant is f's."""
    e, c, b, a, _ = f.coeffs
    return Poly([-(a * a * e - 4 * b * e + c * c), a * c - 4 * e, -b, 1])


def _discriminant(p: Poly) -> int:
    """Discriminant of p = a x^3 + b x^2 + c x + d of degree 2 or 3; at a = 0
    it is b^2 disc(b x^2 + c x + d)."""
    d, c, b, a = p.coeffs + (0,) * (3 - p.degree)
    return b*b*c*c - 4*a*c**3 - 4*b**3*d - 27*a*a*d*d + 18*a*b*c*d


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def galois_certificate(f: Poly) -> str | None:
    """"S2", "S3", "S4", "A4" or "D4" when the Galois group of an
    irreducible monic f is certified to be that group, and orbit_polynomial
    may read f's monomials off it; else None.  A quadratic's is S2 when it
    is a unit, constant term +-1, and not cyclotomic: its roots l, l' then
    have l^j != l'^j for every j > 0, as |l| = |l'| = 1 would make l a root
    of unity (Kronecker).  A cubic's is S3 unless its discriminant is a
    square (A3).  A quartic's is A4 or S4 when its resolvent cubic has no
    rational root, hence no integer root, as the discriminant is a square or
    not (with a root D4, C4 or V4; Kappe-Warren 1989).  A palindromic quartic
    x^4 + a x^3 + b x^2 + a x + 1 is x^2 g(x + 1/x), g = y^2 + a y + b - 2 of
    discriminant D = a^2 - 4b + 8, and its roots l, 1/l, m, 1/m have
    (l - 1/l)^2 (m - 1/m)^2 = f(1) f(-1) = N, so its group, which keeps the
    pairs {l, 1/l} and {m, 1/m}, is all of D4, of order 8, unless D, N or
    D N is a square."""
    if f.degree == 2:
        return "S2" if f.constant in (1, -1) and cyclotomic_index(f) is None else None
    if f.degree == 3:
        return None if _is_square(_discriminant(f)) else "S3"
    if f.degree != 4:
        return None
    resolvent = _resolvent_cubic(f)
    if not _integer_roots(resolvent):
        return "A4" if _is_square(_discriminant(resolvent)) else "S4"
    e, c, b, a, _ = f.coeffs
    if e == 1 and c == a:
        d, n = a * a - 4 * b + 8, f(1) * f(-1)
        if not any(map(_is_square, (d, n, d * n))):
            return "D4"
    return None


_ORBIT_PRIME = 2 ** 31 - 1  # the squarefree test of an orbit polynomial


def orbit_polynomial(f: Poly, group: str, key: tuple[int, ...]) -> Poly | None:
    """The irreducible polynomial whose roots are one Galois orbit of
    monomials in the roots l_1..l_d of an irreducible monic f, group the one
    galois_certificate(f) names and key the orbit's; None when the orbit
    polynomial is not squarefree mod _ORBIT_PRIME, or A4 splits the S4 orbit
    of key.  The group acts transitively on an orbit, so an orbit polynomial
    with distinct roots is the minimal polynomial of each.

    Under S_d an orbit is an exponent type, keyed by the partition pi of its
    nonzero exponents, and the j-th power sum of Q_pi is the monomial
    symmetric function m_pi at l^j (_monomial_terms).  A4 keeps the S4 orbit
    of an exponent vector with a repeated entry (a transposition fixes it,
    and S4 = A4 u A4 (1 2)), which every vector of sum <= 5 over 4 roots has.
    Under S2 the orbit of (a, b), a >= b, is {l^a l'^b, l^b l'^a} with
    e = l l', so Q is x^2 - e^b p_(a-b)(f) x + e^(a+b) when a > b and x - e^a
    when a = b, with distinct roots as the certificate says.  Under D4 the
    roots are l^(+-1) and m^(+-1), a monomial is l^A m^B, and the orbit of
    A >= B >= 0, A > 0, keyed (A, B), has with q_t = p_(jt)(f) the power
    sums q_A q_B - q_(A+B) - q_(A-B) (eight roots) when A > B > 0,
    (q_A^2 - q_(2A) - 4) / 2 (four) when A = B, and q_A (four) when B = 0."""
    if group == "S2":
        a, b = (*key, 0)[:2]
        e = f.constant
        return Poly([-e ** a, 1]) if a == b else Poly(
            [e ** (a + b), -e ** b * power_sums(f, a - b)[-1], 1])
    if group == "A4" and len(key) >= 3 and len(set(key)) == len(key):
        return None
    orbit_sum = _d4_orbit_sum(*key) if group == "D4" else _s_orbit_sum(*_monomial_terms(key))
    size = orbit_sum([f.degree], 0)  # the 0-th power sum, read off p_0 = d
    sums = power_sums(f, sum(key) * size)
    q = poly_from_power_sums([orbit_sum(sums, j) for j in range(1, size + 1)])
    if _gcd_mod(q % _ORBIT_PRIME, q.derivative() % _ORBIT_PRIME, _ORBIT_PRIME).degree:
        return None
    return q


def mobius(n: int) -> int:
    """The Mobius function: 0 unless n is squarefree, else (-1)^(number of
    prime factors)."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


@functools.cache
def cyclotomic(d: int) -> Poly:
    """Phi_d, whose roots are the primitive d-th roots of unity, by Newton's
    identities on their power sums, the Ramanujan sums
    c_d(j) = sum over e | gcd(d, j) of mobius(d / e) e."""
    return poly_from_power_sums(
        [sum(mobius(d // e) * e for e in range(1, d + 1) if d % e == 0 and j % e == 0)
         for j in range(1, _totient(d) + 1)])


def _totient(d: int) -> int:
    return sum(math.gcd(t, d) == 1 for t in range(1, d + 1))


def cyclotomic_index(f: Poly) -> int | None:
    """d when f is Phi_d, else None."""
    return _cyclotomics(f.degree).get(f)


@functools.cache
def _cyclotomics(degree: int) -> dict[Poly, int]:
    """Phi_d -> d for each d with phi(d) = degree, all d <= 2 degree^2, as
    phi(d) >= sqrt(d / 2)."""
    return {cyclotomic(d): d for d in range(1, 2 * degree * degree + 1)
            if _totient(d) == degree}


def _d4_orbit_sum(a: int, b: int):
    """The j-th power sum of the D4 orbit of l^a m^b, from f's power sums."""
    if a > b > 0:
        return lambda q, j: q[j * a] * q[j * b] - q[j * (a + b)] - q[j * (a - b)]
    if a == b:
        return lambda q, j: (q[j * a] ** 2 - q[2 * j * a] - 4) // 2
    return lambda q, j: q[j * a]


def _s_orbit_sum(divisor: int, terms):
    """The j-th power sum of an S_d orbit, m_pi(l^j), from f's power sums."""
    return lambda q, j: sum(coeff * math.prod(q[j * t] for t in key)
                            for key, coeff in terms) // divisor


def _set_partitions(items: tuple):
    """Every partition of the positions of items into blocks, each block the
    tuple of its items."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield ((first,), *blocks)
        for i, block in enumerate(blocks):
            yield (*blocks[:i], (first, *block), *blocks[i + 1:])


@functools.cache
def _monomial_terms(pi: tuple[int, ...]) -> tuple[int, tuple]:
    """m_pi in power sums: m_pi = (1 / prod mult!) sum over set partitions
    sigma of pi's parts of prod_(B in sigma) (-1)^(|B| - 1) (|B| - 1)!
    p_(sum of B), with mult the multiplicities of pi's part sizes (Mobius
    inversion on the lattice of set partitions; Macdonald, Symmetric
    Functions and Hall Polynomials, 1995, I.6).  Returned as prod mult! and
    the (sorted block sums, coefficient) pairs."""
    terms: dict[tuple[int, ...], int] = {}
    for sigma in _set_partitions(pi):
        key = tuple(sorted(map(sum, sigma)))
        coeff = math.prod((-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
                          for block in sigma)
        terms[key] = terms.get(key, 0) + coeff
    divisor = math.prod(math.factorial(pi.count(part)) for part in set(pi))
    return divisor, tuple((key, coeff) for key, coeff in terms.items() if coeff)


def _integer_roots(g: Poly) -> list[int]:
    """Integer roots, in increasing order, of a monic cubic
    g = y^3 + u y^2 + v y + w.  They lie in (-B, B), B = 1 + max(|u|, |v|, |w|)
    (Cauchy), and g is strictly monotone between its critical points
    (-u -+ sqrt(d))/3, d = u^2 - 3v, or everywhere when d <= 0.  With
    s = isqrt(d), the critical points lie within 4/3 of k1 = (-u - s) // 3 and
    k2 = (-u + s) // 3: the integers within 1 of k1 and k2 are tested one by
    one, and a binary search finds the root of each monotone stretch past them."""
    w, v, u, _ = g.coeffs
    bound = 1 + max(abs(u), abs(v), abs(w))
    d = u * u - 3 * v
    if d <= 0:
        stretches, tested = [(-bound, bound, 1)], []
    else:
        s = math.isqrt(d)
        k1, k2 = (-u - s) // 3, (-u + s) // 3
        stretches = [(-bound, k1 - 2, 1), (k1 + 2, k2 - 2, -1), (k2 + 2, bound, 1)]
        tested = [*range(k1 - 1, k1 + 2), *range(k2 - 1, k2 + 2)]
    roots = {y for y in tested if not g(y)}
    for lo, hi, sign in stretches:
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * g(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if not g(lo):
            roots.add(lo)
    return sorted(roots)


def _divide_linear(f: Poly, root: int) -> tuple[Poly, int]:
    """Quotient and remainder f(root) of f by x - root, by synthetic division."""
    acc, quotient = 0, []
    for coeff in reversed(f.coeffs):
        acc = acc * root + coeff
        quotient.append(acc)
    remainder = quotient.pop()
    return Poly(quotient[::-1]), remainder


# ---------------------------------------------------------------------------
# Sturm chains and root counting
# ---------------------------------------------------------------------------

class SturmChain(Record):
    """Sturm chain of p: p, p' and the negated remainders, each primitive."""

    polys: tuple[Poly, ...]

    @classmethod
    def build(cls, p: Poly) -> "SturmChain":
        if p.is_zero:
            raise ZeroPolynomialError("Sturm chain of zero polynomial")
        d = p.derivative()
        chain = _remainders(p, d) if not d.is_zero else [p.primitive()]
        if chain[-1].degree >= 1:
            raise NonSquarefreeError("Sturm count requires a squarefree polynomial")
        return cls(tuple(chain))

    def variations_at(self, x) -> int:
        return _sign_changes([q(x) for q in self.polys])

    def variations_at_infinity(self, direction: int) -> int:
        """Sign changes at +oo (direction 1) or -oo (direction -1)."""
        return _sign_changes([q.leading * direction ** q.degree for q in self.polys])


def _sign_changes(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    nonzero = [v for v in values if v]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def sturm_count(p: Poly, lo=None, hi=None) -> int:
    """Distinct real roots of squarefree p in (lo, hi]; None means -/+ infinity.

    Raises TypeError for an end other than None, int or Fraction (a float
    makes the count inexact), NonSquarefreeError if p is not squarefree,
    and ValueError if lo > hi.
    """
    from fractions import Fraction
    if not all(end is None or isinstance(end, (int, Fraction)) for end in (lo, hi)):
        raise TypeError(f"interval ends must be None, int or Fraction: ({lo!r}, {hi!r}]")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    if p.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if p.degree < 1:
        return 0
    chain = SturmChain.build(p)
    va = chain.variations_at(lo) if lo is not None else chain.variations_at_infinity(-1)
    vb = chain.variations_at(hi) if hi is not None else chain.variations_at_infinity(1)
    return va - vb


def _root_counts(p: Poly) -> tuple[int, int, int]:
    """Distinct (positive, negative, real) roots of squarefree p.  Up to
    degree 3 they are read off the discriminant: when it is positive (always
    at degree 1) every root is real, so Descartes' rule of signs is exact
    and the other nonzero roots are negative; when it is negative a cubic
    has one real root, of the sign of -p(0)/lc(p), and a quadratic none.  A
    higher degree takes one Sturm chain."""
    if p.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if p.degree < 1:
        return 0, 0, 0
    if p.degree <= 3:
        d, c, b, a = p.coeffs + (0,) * (3 - p.degree)
        disc = 1 if p.degree == 1 else _discriminant(p)
        if not disc:
            raise NonSquarefreeError("root count requires a squarefree polynomial")
        if disc > 0:
            positive = _sign_changes(p.coeffs)
            return positive, p.degree - positive - (d == 0), p.degree
        return (int(a * d < 0), int(a * d > 0), 1) if a else (0, 0, 0)
    chain = SturmChain.build(p)
    below = chain.variations_at_infinity(-1)
    at_zero = chain.variations_at(0)
    above = chain.variations_at_infinity(1)
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


def rational_roots(p: Poly) -> list:
    """All rational roots with multiplicity, as Fractions, by divisor enumeration.

    Roots at 0 come first, then candidates in order of increasing numerator
    and denominator, positive sign before negative.
    """
    if p.is_zero:
        raise ZeroPolynomialError("rational roots of zero polynomial")
    from fractions import Fraction
    q = p.primitive()
    roots = []
    while q.degree >= 1 and q.constant == 0:
        roots.append(Fraction(0))
        q = Poly(q.coeffs[1:])
    if q.degree < 1:
        return roots
    for num in _divisors(q.constant):
        for d in _divisors(q.leading):
            if math.gcd(num, d) != 1:
                continue
            for s in (1, -1):
                cand = Fraction(s * num, d)
                while q(cand) == 0:  # d x - s num is primitive, so divides in Z[x]
                    roots.append(cand)
                    q = q.exact_div(Poly([-s * num, d]))
    return roots


def has_positive_real_root(p: Poly) -> bool:
    """True iff p has at least one real root in (0, oo)."""
    if p.is_zero:
        raise ZeroPolynomialError("root predicate on zero polynomial")
    if p.degree < 1:
        return False
    return sturm_count(squarefree_part(p), 0, None) >= 1


def all_roots_positive_real(p: Poly) -> bool:
    """True iff every root of p (with multiplicity) is real and positive."""
    if p.is_zero:
        raise ZeroPolynomialError("root predicate on zero polynomial")
    total = 0
    for factor, mult in squarefree_decomposition(p):
        total += mult * sturm_count(factor, 0, None)
    return total == p.degree
