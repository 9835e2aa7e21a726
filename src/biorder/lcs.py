"""Induced matrix actions on lower-central-series quotients gamma_k / gamma_k+1.

For a free group F_n the degree-k quotient is free abelian with a basis given
by standard bracketings of Lyndon words of length k.  A basis is the tuple of
its Lyndon words (lyndon_basis); the program never builds a bracketing as a
group word, only its Lie polynomial: that of l = uv, uv the standard
factorization, which splits a Lyndon word before its smallest proper
suffix, is the bracket of the polynomials of u and v, from the tables of
lower degree.  A free-group endomorphism acts on the quotient by an integer
matrix whose column j holds the coordinates of the image of the j-th basis
bracket; for k = 1 this is the abelianization matrix M, for k = 2 the
action on basic commutators [x_i, x_j], i < j.

M alone fixes every level (Magnus-Karrass-Solitar, ch. 5).  The quotient is
the degree-k part of the free Lie algebra, and phi acts by the Lie homomorphism
X_i -> sum_j M[j][i] X_j, [u, v] -> [image(u), image(v)].  So the levels are
built in one pass from M up: the column of l = uv is sum_(p,q) col_u[p]
col_v[q] [b_p, b_q], and the integer structure constants [b_p, b_q] depend
only on the rank and the two degrees.  Each table is computed once by
least-monomial elimination, exact as the Lyndon-to-monomial change of basis
is unitriangular in lex order, and [b_q, b_p] = -[b_p, b_q] gives half of it.

That action is L_k(M), the free Lie functor of M, so its characteristic
polynomial needs no matrix, only char(M): Brandt's formula gives
tr L_k(M)^j from the power sums tr(M^e), which are those of char(M)'s roots,
and Newton's identities turn those into the polynomial.  Over Q, V = Q^n
splits into the blocks of char(M) = prod f_i^(e_i), and the free Lie algebra
of a direct sum is multigraded, so char L_k(M) is the product of one piece
per composition c of k over the blocks, the part of degree c_i in block i.
A multigraded Brandt formula gives each piece's traces from the blocks'
power sums e_i p_j(f_i) (level_pieces).  Brandt's own formula is its
one-block case, so level_pieces([(char(M), 1)], k) is [char L_k(M)], whole;
every piece, and the Witt number, read one Mobius sum, _lie_traces.

Every root of char L_k(M) is a monomial l^alpha in the roots l_1..l_n of
char(M), counted with multiplicity, of multiplicity the multigraded Witt
number W(alpha), the dimension of that multidegree of the free Lie algebra
(Reutenauer, Free Lie Algebras, 1993).  So when the blocks of char(M) pin
down which monomials are conjugate, the factors of a level are known
before any piece is built: level_factors groups the alpha by the
irreducible polynomial of l^alpha, when every block is cyclotomic (the
class is the order of a root of unity), or when one block f of
multiplicity 1 has a group that exactalg.galois_certificate names (S2, S3,
S4, A4, or D4 for a palindromic quartic) beside blocks x - 1 and x + 1
(the class is a Galois orbit of monomials in f's roots, with the sign the
x + 1 blocks put on it, and exactalg.orbit_polynomial gives its polynomial).
The analysis reads levels 1-3 this way whenever a frame fits, and builds
pieces only for the char(M) that fit none.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from functools import cache

from ._record import Record
from . import exactalg
from .exactalg import (IntMatrix, Poly, cyclotomic, mobius, orbit_polynomial, poly_from_power_sums,
                       power_sums)
from .freegroup import FreeMap, verify_automorphism

Monomial = tuple[int, ...]  # a Lyndon word, or a monomial of a Lie polynomial
DEGREE_CAP = 4  # highest quotient degree k; analysis levels are 0..DEGREE_CAP - 1


def _lie_traces(block_sums, c):
    """Yield tr(A^j) on L_c for j = 0, 1, 2, ..., so the first is dim L_c.

    A = A_1 + ... + A_r acts on V = B_1 + ... + B_r, block_sums[i][e] =
    tr(A_i^e), and L_c is the part of the free Lie algebra on V of degree
    c_i in B_i, c a composition of k = sum c.  Expanding Brandt's
    tr L_k(A^j) = (1/k) sum_{d|k} mu(d) tr(A^(jd))^(k/d) by multidegree gives

        (1/k) sum_{d | gcd c} mu(d) (k/d)! / prod (c_i/d)! prod tr(A_i^(jd))^(c_i/d)

    (Brandt, Trans. AMS 56, 1944; Reutenauer, Free Lie Algebras, 1993).
    One block and c = (k,) is Brandt's formula itself.
    """
    k = sum(c)
    terms = [(d, coeff, [(block_sums[i], e) for i, e in powers])
             for d, coeff, powers in _brandt_terms(c)]
    for j in itertools.count():
        total = 0
        for d, term, powers in terms:
            for sums, exponent in powers:
                term *= sums[j * d] ** exponent
            total += term
        assert total % k == 0, "Brandt trace must be an integer"
        yield total // k


@cache
def _brandt_terms(c: tuple[int, ...]) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """The terms of _lie_traces on L_c, per squarefree d | gcd c (mu(d) = 0
    drops the others): d, mu(d) (k/d)! / prod (c_i/d)!, and (i, c_i/d) for
    each block i with c_i > 0."""
    k, g = sum(c), math.gcd(*c)
    return tuple((d, mobius(d) * math.factorial(k // d)
                  // math.prod(math.factorial(ci // d) for ci in c),
                  tuple((i, ci // d) for i, ci in enumerate(c) if ci))
                 for d in range(1, g + 1) if g % d == 0 and mobius(d))


def _piece(block_sums, c) -> Poly:
    """Characteristic polynomial of A on L_c: Newton's identities on its traces."""
    traces = _lie_traces(block_sums, c)
    return poly_from_power_sums(list(itertools.islice(traces, next(traces))))


@cache
def witt_number(n: int, k: int) -> int:
    """Rank of the degree-k quotient: dim L_k(V), dim V = n, which is
    (1/k) sum_{d|k} mu(d) n^(k/d)."""
    return next(_lie_traces(([n],), (k,)))


def level_pieces(blocks, k: int) -> list[Poly]:
    """The nonconstant pieces char(L_c), one per composition c of k over the
    blocks f^e of char(M) = prod f^e, blocks the (f, e) pairs of monic f;
    their product is the characteristic polynomial of
    quotient_actions(m, k)[-1].  Block f^e has power sums e * p_j(f)."""
    dims = [[e * f.degree] for f, e in blocks]
    shapes = _shapes(dims, k)
    # the traces on L_c read p_(jd) of the blocks in c, j <= deg L_c, for
    # each d of its Brandt terms
    counts = [max((degree * _brandt_terms(c)[-1][0] for c, degree in shapes if c[i]),
                  default=0)
              for i in range(len(dims))]
    block_sums = [[e * p for p in power_sums(f, count)]
                  for (f, e), count in zip(blocks, counts)]
    return [_piece(block_sums, c) for c, _ in shapes]


def _shapes(dims, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(c, dim L_c) for each composition c of k over blocks of dimensions
    dims[i][0] with L_c nonzero."""
    return [(c, degree) for c in _compositions(k, len(dims))
            if (degree := next(_lie_traces(dims, c)))]


def level_factors(blocks, degrees) -> dict[int, dict[Poly, int]]:
    """The irreducible factors of char L_k(M), with their multiplicities, for
    each k in degrees that the eigenvalue classes of char(M) = prod f^e
    give, blocks the (f, e) pairs of its irreducible monic f; {} when they
    fit neither frame below, and a k whose classes need an orbit that
    orbit_polynomial leaves out is missing too.  Only the orbits that
    some alpha with W(alpha) > 0 reaches are built, each once.

    L_k(M) has the characteristic polynomial of L_k of the diagonal matrix of
    char(M)'s roots l_1..l_n, counted with multiplicity: prod over alpha in
    N^n, |alpha| = k, of (x - l^alpha)^W(alpha) (_witt_vectors).  The roots
    of one irreducible q fall into one class of exponent vectors, and the
    class's W(alpha) add up to deg q times q's multiplicity.  A class is read
    off the exponents (_root_classes) in two frames:

    A  every f is cyclotomic, f = Phi_d: its roots are z^(N t / d), z a
       primitive N-th root of unity, N the lcm of the d, t prime to d, so
       l^alpha is z^m, the root of Phi_(N / gcd(m, N));
    B  one f has multiplicity 1 and a group galois_certificate names, the
       others are x - r, r = +-1: l^alpha is s times a monomial in f's
       roots, s the product of the r^(alpha_r), whose Galois orbit is keyed as
       in orbit_polynomial, and q is that orbit's polynomial with its roots
       times s; a monomial 1 gives x - s.
    """
    root_class = _root_classes(blocks) if degrees else None
    if root_class is None:
        return {}
    n = sum(f.degree * e for f, e in blocks)
    out = {}
    for k in degrees:
        totals: dict[Poly, int] = {}
        for alpha, w in _witt_vectors(n, k):
            q = root_class(alpha)
            if q is None:
                break
            totals[q] = totals.get(q, 0) + w
        else:
            out[k] = {q: total // q.degree for q, total in totals.items()}
    return out


def _root_classes(blocks):
    """The function alpha -> irreducible polynomial of l^alpha, or None for
    an orbit orbit_polynomial leaves out, when char(M)'s blocks fit frame A or
    B of level_factors; else None.  The roots of each block f^e take
    f.degree * e consecutive positions of alpha, in the order of blocks."""
    nonlinear = [(f, e) for f, e in blocks if f.degree >= 2]
    if (len(nonlinear) == 1 and nonlinear[0][1] == 1
            and all(f.constant in (1, -1) for f, _ in blocks if f.degree == 1)):
        f = nonlinear[0][0]
        group = exactalg.galois_certificate(f)
        if group is not None:
            return _orbit_classes(blocks, f, group)
    indices = [exactalg.cyclotomic_index(f) for f, _ in blocks]
    if None in indices:
        return None
    top = math.lcm(*indices)
    exponents = [top // d * t for d, (_, e) in zip(indices, blocks)
                 for t in range(1, d + 1) if math.gcd(t, d) == 1 for _ in range(e)]
    return lambda alpha: cyclotomic(top // math.gcd(top, sum(map(operator.mul, alpha, exponents))))


def _orbit_classes(blocks, f: Poly, group: str):
    """Frame B of level_factors.  Under D4 f's roots take their positions in
    the order l, 1/l, m, 1/m, so that l^gamma on them is l^A m^B."""
    minus, start = [], 0  # the positions of the roots -1, and where f's begin
    for g, e in blocks:
        if g == f:
            roots = slice(start, start + f.degree)
        elif g.constant == 1:  # x + 1
            minus += range(start, start + e)
        start += g.degree * e
    orbits: dict[tuple, Poly | None] = {}  # orbit_polynomial by key, each built once
    classes: dict[tuple, Poly | None] = {}

    def root_class(alpha):
        s = (-1) ** sum(alpha[i] for i in minus)
        gamma = alpha[roots]
        if group == "D4":
            key = tuple(sorted((abs(gamma[0] - gamma[1]), abs(gamma[2] - gamma[3])),
                               reverse=True))
            key = key if key[0] else ()
        else:
            key = tuple(sorted(filter(None, gamma), reverse=True))
        if (key, s) not in classes:
            if not key:  # the monomial 1
                q = Poly([-1, 1])
            else:
                if key not in orbits:
                    orbits[key] = orbit_polynomial(f, group, key)
                q = orbits[key]
            classes[key, s] = q if q is None else Poly(
                a * s ** (q.degree - j) for j, a in enumerate(q.coeffs))
        return classes[key, s]
    return root_class


@cache
def _witt_vectors(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(alpha, W(alpha)) for each alpha in N^n with |alpha| = k and
    W(alpha) = (1/k) sum_{d | gcd alpha} mu(d) (k/d)! / prod (alpha_i/d)! > 0,
    the dimension of the part of multidegree alpha of the free Lie algebra
    on n letters: the sum of the coefficients of _brandt_terms(alpha), over
    k.  W depends on alpha's entries alone, so it is found once per sorted
    alpha; alpha runs over the placements of n - 1 bars among k + n - 1 slots."""
    weights: dict[tuple[int, ...], int] = {}
    out = []
    for bars in itertools.combinations(range(k + n - 1), n - 1):
        alpha = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, k + n - 1)))
        shape = tuple(sorted(alpha))
        if shape not in weights:
            weights[shape] = sum(coeff for _, coeff, _ in _brandt_terms(shape)) // k
        if weights[shape]:
            out.append((alpha, weights[shape]))
    return tuple(out)


def _compositions(k: int, r: int):
    """Tuples of r nonnegative integers with sum k."""
    if r == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, r - 1):
            yield (first, *rest)


def _standard_factorization(lw: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word of length >= 2 before its longest proper Lyndon
    suffix, which is its lexicographically smallest proper suffix (Viennot,
    1978; Reutenauer, Free Lie Algebras, 1993)."""
    i = min(range(1, len(lw)), key=lambda i: lw[i:])
    return lw[:i], lw[i:]


def lyndon_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """Basis of gamma_k / gamma_k+1 for F_n: the Lyndon words of length
    exactly k over {0..n-1} in lex order (Duval), each standing for its
    standard bracketing; their count is the Witt number."""
    if n < 1:
        raise ValueError(f"rank {n} below 1")
    if not 1 <= k <= DEGREE_CAP:
        raise ValueError(f"degree {k} outside 1..{DEGREE_CAP}")
    out = []
    w = [0]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        w = [w[i % len(w)] for i in range(k)]
        while w and w[-1] == n - 1:
            w.pop()
        if w:
            w[-1] += 1
    assert len(out) == witt_number(n, k)
    return tuple(out)


class QuotientAction(Record):
    """Matrix of an endomorphism on a degree-k quotient; columns are images."""

    basis: tuple[Monomial, ...]   # lyndon_basis(n, k)
    matrix: IntMatrix


def _lie_coordinates(part: dict[Monomial, int], basis: tuple[Monomial, ...],
                     basis_parts: tuple[dict[Monomial, int], ...]) -> list[int]:
    """Coordinates of a degree-k Lie element in the Lyndon basis, basis in
    lex order.

    The expansion of the bracketing of a Lyndon word l is l plus lex-greater
    monomials, so the least monomial of a nonzero Lie element is the least
    Lyndon word with a nonzero coordinate, and its coefficient is that
    coordinate; subtracting that multiple of the word's bracketing leaves
    greater monomials only, and the residue empties.  A least monomial that is not a basis
    word would mean the input was not a Lie element with integer coordinates
    and is an internal error.
    """
    residue = dict(part)
    coords = [0] * len(basis)
    while residue:
        lw = min(residue)
        i = bisect.bisect_left(basis, lw)
        assert i < len(basis) and basis[i] == lw, \
            "degree-k part is not an integral Lie element"
        c = coords[i] = residue[lw]
        for m, v in basis_parts[i].items():
            nv = residue.get(m, 0) - c * v
            if nv:
                residue[m] = nv
            else:
                del residue[m]
    return coords


def _lie_bracket(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """ab - ba of two noncommutative polynomials."""
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out[ma + mb] = out.get(ma + mb, 0) + ca * cb
            out[mb + ma] = out.get(mb + ma, 0) - ca * cb
    return {mono: c for mono, c in out.items() if c}


@cache
def _basis_parts(n: int, k: int) -> tuple[tuple[Monomial, ...], tuple[dict[Monomial, int], ...]]:
    """The basis and each bracket's Lie polynomial; shared, so never mutate
    them.  The bracket of l = uv, uv its standard factorization, is
    [bracket of u, bracket of v], both from the tables of lower degree."""
    basis = lyndon_basis(n, k)
    if k == 1:
        return basis, tuple({lw: 1} for lw in basis)
    return basis, tuple(_lie_bracket(_bracket(n, u), _bracket(n, v))
                        for u, v in map(_standard_factorization, basis))


@cache
def _index(n: int, k: int) -> dict[Monomial, int]:
    """Each degree-k basis word's index in the basis."""
    return {lw: i for i, lw in enumerate(_basis_parts(n, k)[0])}


def _bracket(n: int, lw: Monomial) -> dict[Monomial, int]:
    """The Lie polynomial of a basis word's bracketing, from its table."""
    return _basis_parts(n, len(lw))[1][_index(n, len(lw))[lw]]


@cache
def _splits(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Each degree-k basis word's standard factorization uv, k >= 2, as
    (len u, index of u, index of v), each index in the basis of its degree."""
    return tuple((len(u), _index(n, len(u))[u], _index(n, len(v))[v])
                 for u, v in map(_standard_factorization, _basis_parts(n, k)[0]))


@cache
def _structure(n: int, i: int, j: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Structure constants: table[p][q] holds the nonzero (r, c) with
    [b_p, b_q] = sum c b_r, for b_p, b_q, b_r in the degree-i, -j and -(i+j)
    bases.  [b_q, b_p] = -[b_p, b_q], so a table with i > j is the negated
    transpose of the one with i and j swapped, and one with i = j is built
    above its diagonal only, which [b, b] = 0 leaves empty."""
    if i > j:
        return tuple(zip(*(tuple(tuple((r, -c) for r, c in entries) for entries in row)
                           for row in _structure(n, j, i))))
    basis, parts = _basis_parts(n, i + j)
    left, right = _basis_parts(n, i)[1], _basis_parts(n, j)[1]
    table = [[()] * len(right) for _ in left]
    for p, a in enumerate(left):
        for q in range(p + 1 if i == j else 0, len(right)):
            coords = _lie_coordinates(_lie_bracket(a, right[q]), basis, parts)
            table[p][q] = tuple((r, c) for r, c in enumerate(coords) if c)
            if i == j:
                table[q][p] = tuple((r, -c) for r, c in table[p][q])
    return tuple(map(tuple, table))


def abelianized(phi: FreeMap) -> IntMatrix:
    """M, the action on gamma_1 / gamma_2: column j is the exponent-sum
    vector of images[j]."""
    return IntMatrix(tuple(zip(*(w.exponent_vector() for w in phi.images))))


def quotient_actions(m: IntMatrix, top: int) -> list[QuotientAction]:
    """Actions on gamma_k / gamma_k+1, k = 1..top, of every endomorphism with
    abelianization m.  Level 1 is m; the column of a basis word l = uv at a
    higher level is bilinear in the columns of u and v, through the structure
    constants of the bracket [u, v]."""
    if not 1 <= top <= DEGREE_CAP:
        raise ValueError(f"degree {top} outside 1..{DEGREE_CAP}")
    n = m.dim
    for k in range(2, top + 1):
        if witt_number(n, k) == 0:
            raise ValueError(f"gamma_{k} / gamma_{k + 1} is trivial at rank {n} "
                             f"(Witt number 0)")
    levels = [list(zip(*m.rows))]  # levels[k - 1][l]: image of basis word l of degree k
    for k in range(2, top + 1):
        splits = _splits(n, k)
        columns = []
        for i, a, b in splits:
            column = [0] * len(splits)
            table = _structure(n, i, k - i)
            right = levels[k - i - 1][b]
            for row, x in zip(table, levels[i - 1][a]):
                if x:
                    for entries, y in zip(row, right):
                        if y:
                            for r, c in entries:
                                column[r] += x * y * c
            columns.append(column)
        levels.append(columns)
    return [QuotientAction(_basis_parts(n, k)[0], m if k == 1 else IntMatrix(tuple(zip(*cols))))
            for k, cols in enumerate(levels, 1)]


def lcs_action(phi: FreeMap, k: int) -> QuotientAction:
    """Action induced by phi on gamma_k / gamma_k+1 in the Lyndon basis, once
    verify_automorphism (whose NotAnAutomorphismError it raises) passes phi."""
    verify_automorphism(phi)
    return quotient_actions(abelianized(phi), k)[-1]
