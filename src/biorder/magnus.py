"""Truncated noncommutative series expansion of free-group words.

The generator x_i maps to 1 + X_i and its inverse to the truncated geometric
series 1 - X_i + X_i^2 - ...; coefficients are exact integers.  expand packs
each degree-k layer of the running product into one int of signed fields,
one per monomial in the u generators the word uses, wide enough for
C(L+k-1, k), the largest degree-k coefficient of L letters, so a letter costs
one shift-and-add per degree.  When the top layer would span more than 2^13
fields (u^k), each layer keeps only its nonzero monomials, since a word over
many letters reaches few of the u^k (8 distinct letters: 4677 of 8^8).
The first nonvanishing homogeneous part of a word orders the free group: a
word is positive when that part's first coefficient in graded-lex monomial
order is positive.  The degree-1 part is the exponent-sum vector, so a word
with a nonzero sum is keyed and signed by its first one, with no LowestTerm;
a zero-sum word's degree-2 part is read exactly in one pass over its letters,
so only words in gamma_3 are expanded to find it.  This yields a
concrete bi-order and lower-central-series membership.  Infinitesimality (and
so weak comparability) is read off one key per element, (lowest degree,
leading monomial), which w and w^-1 share.

Past degree 2, the degree of that part is located by evaluation, and one
exact expansion decides the answer.  The same recurrences run over Z on one
row of integers, with X_g at monomial position j replaced by a random value
a[g][j] in [0, 2^60), so entry d of the row is the degree-d part evaluated
at a point.  A nonzero value proves the part nonzero.  A nonzero part of
degree d vanishes at the point with probability at most d / 2^60
(Schwartz-Zippel, over any integral domain), and such a false zero only
makes the one expansion deeper, never the answer different.

Monomial order is graded lex with X_0 < X_1 < ..., so the first declared
generator dominates every other element.
"""

from __future__ import annotations

import random
import re
from math import comb

from ._record import Record
from .freegroup import Word, _check_rank, invert, multiply

Monomial = tuple[int, ...]

# Evaluation points; they change the work a call does, never its answer.
_RNG = random.Random(61)


class NoLowestTermError(ValueError):
    """The identity word has no lowest term."""


class TrivialElementError(ValueError):
    """Infinitesimality is only defined for non-identity elements."""


class Series:
    """Noncommutative integer polynomial truncated at a fixed total degree.

    Immutable by convention; coefficients map monomials (tuples of variable
    indices) to nonzero integers.
    """

    __slots__ = ("nvars", "truncation", "coeffs")

    def __init__(self, nvars: int, truncation: int, coeffs=None):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.nvars = nvars
        self.truncation = truncation
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    def homogeneous_part(self, d: int) -> dict[Monomial, int]:
        return {m: c for m, c in self.coeffs.items() if len(m) == d}

    def __eq__(self, other):
        return (isinstance(other, Series) and self.nvars == other.nvars
                and self.truncation == other.truncation and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        body = " + ".join(f"{c}*X{list(m)}" if m else str(c) for m, c in terms) or "0"
        return f"Series(D={self.truncation}: {body})"


def series_mul(s: Series, t: Series) -> Series:
    """Product truncated at the lower of the two truncations."""
    if s.nvars != t.nvars:
        raise ValueError("variable count mismatch")
    d = min(s.truncation, t.truncation)
    out: dict[Monomial, int] = {}
    for m1, c1 in s.coeffs.items():
        if len(m1) > d:
            continue
        room = d - len(m1)
        for m2, c2 in t.coeffs.items():
            if len(m2) > room:
                continue
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return Series(s.nvars, d, out)  # drops the zeros


_PACKED_FIELDS = 1 << 13  # the most fields (u^truncation) a packed top layer gets


def expand(w: Word, truncation: int) -> Series:
    """Magnus expansion of w, truncated at the given total degree.

    The u generators that occur in w, in order, are the digits 0..u-1, and a
    monomial's key has its letters as base-u digits.  x_g adds P[k-1] X_g to
    layer P[k] for k falling (P[k-1] still old); x_g^-1 subtracts Q[k-1] X_g
    for k rising (Q[k-1] already new), solving Q (1 + X_g) = P.

    While u^truncation <= _PACKED_FIELDS, layer P[k] is one int of u^k signed
    W-bit fields, whatever the rank, the last letter most significant, so
    P[k-1] X_g is P[k-1] << W i u^(k-1) for g's digit i.  The top layer is
    never read: it is kept as one sum of P[top-1] per last letter and shifted
    into place at the end.  A degree-k coefficient of L letter series is a
    signed count of weak compositions of k into L parts, so |c| is at most
    C(L+k-1, k), which x^-L reaches; W is its bits plus a sign bit, in bytes.
    Past that size each layer is a dict of its nonzero monomials, keyed the
    first letter most significant.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    used = sorted({g for g, _ in w.letters})
    digit, n, top = {g: i for i, g in enumerate(used)}, len(used), truncation
    if n ** top > _PACKED_FIELDS:
        sparse: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(top)]
        for g, s in w.letters:
            g = digit[g]
            for k in range(top, 0, -1) if s == 1 else range(1, top + 1):
                layer = sparse[k]
                for m, c in sparse[k - 1].items():  # the key m n + g appends X_g
                    if v := layer.get(t := m * n + g, 0) + s * c:
                        layer[t] = v
                    else:
                        del layer[t]
        return Series(w.rank, top, {tuple(used[m // n ** j % n] for j in range(k - 1, -1, -1)): c
                                    for k, layer in enumerate(sparse) for m, c in layer.items()})
    width = 8 * ((comb(max(len(w), 1) + top - 1, top).bit_length() + 8) // 8)
    steps, layers, last = [width * n ** k for k in range(top)], [1] + [0] * top, [0] * n
    for g, s in w.letters:
        g = digit[g]
        if s == 1:
            last[g] += layers[top - 1]
            for k in range(top - 1, 0, -1):
                layers[k] += layers[k - 1] << g * steps[k - 1]
        else:
            for k in range(1, top):
                layers[k] -= layers[k - 1] << g * steps[k - 1]
            last[g] -= layers[top - 1]
    if top:  # at truncation 0, last summed the constant layer: unused
        layers[top] = sum(v << i * steps[top - 1] for i, v in enumerate(last))
    # The offset adds 2^(W-1) to every field: a zero coefficient reads 2^(W-1).
    coeffs, half, size = {(): 1}, 1 << width - 1, width // 8
    for k, v in enumerate(layers):
        if k and v:
            off = ((1 << width * n ** k) - 1) // ((1 << width) - 1) * half
            fields = (v + off).to_bytes(size * n ** k, "little")
            for run in re.finditer(rb"[^\0]+", (v + off ^ off).to_bytes(len(fields), "little")):
                for m in range(run.start() // size, (run.end() - 1) // size + 1):
                    coeffs[tuple(used[m // n ** j % n] for j in range(k))] = (
                        int.from_bytes(fields[m * size:(m + 1) * size], "little") - half)
    return Series(w.rank, top, coeffs)


class LowestTerm(Record):
    """First nonvanishing homogeneous part of a nontrivial word's expansion."""

    degree: int
    part: tuple[tuple[Monomial, int], ...]  # grlex-sorted, all coefficients nonzero


def _points(rank: int, top: int) -> list[list[int]]:
    """Fresh random values a[g][j] of X_g at monomial positions j < top.

    They are uniform on the 2^60 integers in [0, 2^60), so a nonzero integer
    part of degree d vanishes at them with probability <= d / 2^60.
    """
    return [[_RNG.getrandbits(60) for _ in range(top)] for _ in range(rank)]


def _degree2_part(w: Word) -> tuple[tuple[Monomial, int], ...]:
    """The degree-2 part of w's expansion, grlex-sorted, zeros left out.

    Multiplying by x_g^s adds s X_g times the degree-1 part so far (the
    exponent sums e) to degree 2, and x_g^-1 also adds X_g^2.
    """
    n = w.rank
    e = [0] * n
    c = [0] * (n * n)  # c[i * n + j] is the coefficient of X_i X_j
    for g, s in w.letters:
        for i, x in enumerate(e):
            c[i * n + g] += s * x
        if s < 0:
            c[g * n + g] += 1
        e[g] += s
    return tuple(((m // n, m % n), x) for m, x in enumerate(c) if x)


def _evaluated_degree(w: Word, bound: int, top: int = 1) -> int | None:
    """Least d in 2..bound whose degree-d part of w evaluates nonzero, or None.

    The row v[0..top] of integers, exact (no modulus), follows expand's
    recurrences with scalars for layers:
    x_g does v[j] += v[j-1] a[g][j-1] with j falling, x_g^-1 does
    v[j] -= v[j-1] a[g][j-1] with j rising; v[0] stays 1, so v[1] only adds
    or subtracts a[g][0].  top runs 2 top, 4 top, ... up to bound, each at
    fresh points, so a low degree costs a short row; a caller that knows
    every part up to degree top vanishes passes that top.  A nonzero v[d]
    proves the degree-d part nonzero; None proves nothing.
    """
    while top < bound:
        top = min(2 * top, bound)
        points = _points(w.rank, top)
        falling, rising = range(top, 1, -1), range(2, top + 1)
        v = [1] + [0] * top
        for g, s in w.letters:
            a = points[g]
            if s == 1:
                for j in falling:
                    v[j] += v[j - 1] * a[j - 1]
                v[1] += a[0]
            else:
                v[1] -= a[0]
                for j in rising:
                    v[j] -= v[j - 1] * a[j - 1]
        for d in range(2, top + 1):
            if v[d]:
                return d
    return None


def lowest_term(w: Word) -> LowestTerm:
    """Minimal degree d >= 1 with a nonzero homogeneous part.

    Degree 1 is the exponent-sum vector: the coefficient of X_i is the
    exponent sum of x_i, and the monomials (0,), (1,), ... are in grlex
    order.  A word with zero exponent sums has its degree-2 part computed
    exactly in one pass.  When that is zero too, w is evaluated at random
    integer points from degree 3 on to locate its degree (a nontrivial
    reduced word of length L never lies in gamma_{L+1}, so one exists by
    degree L; when every evaluation up to L reads zero, fresh points are
    drawn).  Then w is expanded once, at the first degree that evaluated
    nonzero, and the answer is the first nonzero layer of that exact
    expansion, whatever the points were.
    """
    if w.is_identity:
        raise NoLowestTermError("identity word has no lowest term")
    if part := tuple(((i,), c) for i, c in enumerate(w.exponent_vector()) if c):
        return LowestTerm(1, part)
    if part := _degree2_part(w):
        return LowestTerm(2, part)
    while (top := _evaluated_degree(w, len(w), 2)) is None:
        pass
    s = expand(w, top)
    d = min(len(m) for m in s.coeffs if m)  # layer top at the latest
    return LowestTerm(d, tuple(sorted(s.homogeneous_part(d).items())))


def _first_sum(w: Word) -> tuple[int, int] | None:
    """(i, e_i) for the first generator i with a nonzero exponent sum e_i, or None."""
    for i, e in enumerate(w.exponent_vector()):
        if e:
            return i, e
    return None


def archimedean_key(w: Word) -> tuple[int, Monomial]:
    """(lowest degree, first lowest monomial) of a nontrivial word.

    w and w^-1 share it, since their lowest parts are negatives of each other.
    A nonzero exponent sum gives (1, (i,)) for the first such i; only a word
    whose sums all vanish needs lowest_term.
    """
    if first := _first_sum(w):
        return (1, (first[0],))
    lt = lowest_term(w)
    return (lt.degree, lt.part[0][0])


LT, EQ, GT = -1, 0, 1


def sign(w: Word) -> int:
    """0 for the identity, else the sign of the first lowest-term coefficient:
    of the first nonzero exponent sum, when there is one."""
    if w.is_identity:
        return 0
    first_coeff = first[1] if (first := _first_sum(w)) else lowest_term(w).part[0][1]
    return 1 if first_coeff > 0 else -1


def compare(w1: Word, w2: Word) -> int:
    """Total bi-invariant order: w1 < w2 iff w1^-1 w2 is positive."""
    return -sign(multiply(invert(w1), w2))


def magnitude(w: Word) -> Word:
    """|w|: w itself if positive, otherwise its inverse."""
    return w if sign(w) >= 0 else invert(w)


def is_infinitesimal(f: Word, g: Word) -> bool:
    """True iff |f|^n < |g| for every n >= 1.

    That holds iff f's lowest degree is higher than g's, or the degrees tie
    and f's leading monomial comes strictly after g's in graded-lex order:
    archimedean_key(f) > archimedean_key(g).
    """
    _check_rank(f, g)
    if f.is_identity or g.is_identity:
        raise TrivialElementError("infinitesimality is defined for non-identity elements")
    return archimedean_key(f) > archimedean_key(g)


def in_gamma(w: Word, k: int) -> bool:
    """Membership in the k-th lower central series term of the free group.

    w is in gamma_k iff every layer of expand(w, k - 1) but the constant one
    is zero.  Past the word's length only the identity is; a nonzero exponent
    sum or evaluated degree below k refutes it unexpanded, else expand decides.
    """
    if k < 1:
        raise ValueError("central series index must be >= 1")
    if k == 1:
        return True
    if k > len(w):  # a nontrivial reduced word of length L is not in gamma_(L+1)
        return w.is_identity
    if any(w.exponent_vector()) or _evaluated_degree(w, k - 1) is not None:
        return False
    s = expand(w, k - 1)
    return all(not m for m in s.coeffs)
