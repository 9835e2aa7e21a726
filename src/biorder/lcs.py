"""Induced matrix actions on lower-central-series quotients gamma_k / gamma_k+1.

For a free group F_n the degree-k quotient is free abelian with a basis given
by standard bracketings of Lyndon words of length k.  A basis is the tuple of
its Lyndon words (lyndon_basis); the program never builds a bracketing as a
group word, only its Lie polynomial, by one fold along the standard
factorization, which splits a Lyndon word before its smallest proper suffix.
A free-group endomorphism acts on the quotient by an integer matrix whose
column j holds the coordinates of the image of the j-th basis bracket; for
k = 1 this is the abelianization matrix M, for k = 2 the action on basic
commutators [x_i, x_j], i < j.

M alone fixes every level (Magnus-Karrass-Solitar, ch. 5).  The quotient is
the degree-k part of the free Lie algebra, and phi acts by the Lie homomorphism
X_i -> sum_j M[j][i] X_j, [u, v] -> [image(u), image(v)].  So the levels are
built in one pass from M up: the column of l = uv is sum_(p,q) col_u[p]
col_v[q] [b_p, b_q], and the integer structure constants [b_p, b_q] depend
only on the rank and the two degrees.  Each table is computed once by
leading-monomial elimination, exact as the Lyndon-to-monomial change of basis
is unitriangular in lex order.

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

Every root of the piece of c is a monomial of degree c_i in the roots of
each block f_i.  When char(M) is one block f of degree >= 2, of multiplicity
1, beside blocks x - 1 and x + 1, and the Galois group of f is as large as
its shape allows (exactalg.galois_certificate: S2, S3, S4, or D4 for a
palindromic quartic), those monomials fall into Galois orbits, and an orbit
polynomial with distinct roots is irreducible: orbit_factors gives them for
a level, with the signs the x + 1 blocks put on the roots, so that
factor_over_Q finds the factors of a level-2 or level-3 piece by trial
division and not by the modular route.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from ._record import Record
from .exactalg import IntMatrix, Poly, monomial_orbits, poly_from_power_sums, power_sums
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
    return tuple((d, _mobius(d) * math.factorial(k // d)
                  // math.prod(math.factorial(ci // d) for ci in c),
                  tuple((i, ci // d) for i, ci in enumerate(c) if ci))
                 for d in range(1, g + 1) if g % d == 0 and _mobius(d))


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


def orbit_factors(blocks, k: int) -> list[Poly]:
    """Irreducible factors of the level-k pieces read off Galois orbits, when
    char(M) has one block f of degree >= 2, of multiplicity 1, and every
    other block is x - r, r = +-1; [] otherwise.  The roots of the piece of
    composition c are s l^a, l^a a monomial of degree c_f in f's roots and
    s = prod r^(c_r), so when galois_certificate(f) names Gal(f), the
    monomial_orbits of degree c_f with roots scaled by s are irreducible
    candidates for its factors, certified, not merely likely."""
    nonlinear = [i for i, (f, _) in enumerate(blocks) if f.degree >= 2]
    if len(nonlinear) != 1 or blocks[nonlinear[0]][1] != 1:
        return []
    i = nonlinear[0]
    f = blocks[i][0]
    roots = [-g.constant for g, _ in blocks]  # r of each x - r; f's is unused
    dims = [[e * g.degree] for g, e in blocks]
    scaled = {(c[i], math.prod(r ** cj for j, (r, cj) in enumerate(zip(roots, c)) if j != i))
              for c, _ in _shapes(dims, k) if c[i]}
    return [Poly(a * s ** (q.degree - j) for j, a in enumerate(q.coeffs))
            for degree, s in sorted(scaled) for q in monomial_orbits(f, degree)]


def _compositions(k: int, r: int):
    """Tuples of r nonnegative integers with sum k."""
    if r == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, r - 1):
            yield (first, *rest)


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def _standard_factorization(lw: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word of length >= 2 before its longest proper Lyndon
    suffix, which is its lexicographically smallest proper suffix (Viennot,
    1978; Reutenauer, Free Lie Algebras, 1993)."""
    i = min(range(1, len(lw)), key=lambda i: lw[i:])
    return lw[:i], lw[i:]


def _fold(lw: tuple[int, ...], leaf, node):
    """Standard bracketing of a Lyndon word with leaf(i) at each letter i and
    node(left, right) at each bracket of its standard factorization."""
    if len(lw) == 1:
        return leaf(lw[0])
    u, v = _standard_factorization(lw)
    return node(_fold(u, leaf, node), _fold(v, leaf, node))


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
    """Coordinates of a degree-k Lie element in the Lyndon basis.

    The expansion of the bracketing of a Lyndon word l is l plus lex-greater
    monomials, so eliminating in increasing lex order is exact; a nonzero
    remainder would mean the input was not a Lie element with integer
    coordinates and is an internal error.
    """
    residue = dict(part)
    coords = []
    for lw, bpart in zip(basis, basis_parts):
        c = residue.get(lw, 0)
        coords.append(c)
        if c:
            for m, v in bpart.items():
                nv = residue.get(m, 0) - c * v
                if nv:
                    residue[m] = nv
                elif m in residue:
                    del residue[m]
    assert not residue, "degree-k part is not an integral Lie element"
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
    """The basis and each bracket's Lie polynomial; shared, so never mutate them."""
    basis = lyndon_basis(n, k)
    return basis, tuple(_fold(lw, lambda i: {(i,): 1}, _lie_bracket) for lw in basis)


@cache
def _splits(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Each degree-k basis word's standard factorization uv, k >= 2, as
    (len u, index of u, index of v), each index in the basis of its degree."""
    index = {lw: i for d in range(1, k) for i, lw in enumerate(_basis_parts(n, d)[0])}
    return tuple((len(u), index[u], index[v])
                 for u, v in map(_standard_factorization, _basis_parts(n, k)[0]))


@cache
def _structure(n: int, i: int, j: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Structure constants: table[p][q] holds the nonzero (r, c) with
    [b_p, b_q] = sum c b_r, for b_p, b_q, b_r in the degree-i, -j and -(i+j) bases."""
    basis, parts = _basis_parts(n, i + j)
    return tuple(tuple(tuple((r, c) for r, c in enumerate(
        _lie_coordinates(_lie_bracket(a, b), basis, parts)) if c)
        for b in _basis_parts(n, j)[1]) for a in _basis_parts(n, i)[1])


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
