"""Truncated noncommutative series expansion of free-group words.

The generator x_i maps to 1 + X_i and its inverse to the truncated geometric
series 1 - X_i + X_i^2 - ...; coefficients are exact integers.  The first
nonvanishing homogeneous part of a word orders the free group: a word is
positive when that part's first coefficient in graded-lexicographic monomial
order is positive.  This yields a concrete bi-order and lower-central-series
membership.  Infinitesimality (and so weak comparability) is read off one key
per element, (lowest degree, leading monomial), which w and w^-1 share.

Monomial order is graded lex with X_0 < X_1 < ..., so the first declared
generator dominates every other element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import Word, invert, multiply

Monomial = tuple[int, ...]


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

    @classmethod
    def one(cls, nvars: int, truncation: int) -> "Series":
        return cls(nvars, truncation, {(): 1})

    def homogeneous_part(self, d: int) -> dict[Monomial, int]:
        return {m: c for m, c in self.coeffs.items() if len(m) == d}

    def __eq__(self, other):
        return (isinstance(other, Series) and self.nvars == other.nvars
                and self.truncation == other.truncation and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.truncation, tuple(sorted(self.coeffs.items()))))

    def __mul__(self, other: "Series") -> "Series":
        return series_mul(self, other)

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        body = " + ".join(f"{c}*X{list(m)}" if m else str(c) for m, c in terms) or "0"
        return f"Series(D={self.truncation}: {body})"


def series_mul(s: Series, t: Series, truncation: int | None = None) -> Series:
    """Product with all monomials above the truncation bound dropped."""
    if s.nvars != t.nvars:
        raise ValueError("variable count mismatch")
    d = min(s.truncation, t.truncation) if truncation is None else truncation
    out: dict[Monomial, int] = {}
    for m1, c1 in s.coeffs.items():
        if len(m1) > d:
            continue
        room = d - len(m1)
        for m2, c2 in t.coeffs.items():
            if len(m2) > room:
                continue
            m = m1 + m2
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return Series(s.nvars, d, out)


def _letter_series(nvars: int, gen: int, sign: int, d: int) -> Series:
    if sign == 1:
        coeffs = {(): 1}
        if d >= 1:
            coeffs[(gen,)] = 1
    else:
        coeffs = {tuple([gen] * k): (-1) ** k for k in range(d + 1)}
    return Series(nvars, d, coeffs)


def expand(w: Word, truncation: int) -> Series:
    """Magnus expansion of w, truncated at the given total degree."""
    out = Series.one(w.rank, truncation)
    for g, s in w.letters:
        out = series_mul(out, _letter_series(w.rank, g, s, truncation))
    return out


@dataclass(frozen=True)
class LowestTerm:
    """First nonvanishing homogeneous part of a nontrivial word's expansion."""

    degree: int
    part: tuple[tuple[Monomial, int], ...]  # grlex-sorted, all coefficients nonzero


def lowest_term(w: Word) -> LowestTerm:
    """Minimal degree d >= 1 with a nonzero homogeneous part.

    The truncation rises one degree at a time, so the word is never expanded
    past its lowest degree.  A nontrivial reduced word of length L never lies
    in gamma_{L+1}, so the search ends by degree L.
    """
    if w.is_identity:
        raise NoLowestTermError("identity word has no lowest term")
    for d in range(1, len(w) + 1):
        part = expand(w, d).homogeneous_part(d)
        if part:
            return LowestTerm(d, tuple(sorted(part.items())))
    raise AssertionError("reduced word escaped its length-bounded central series depth")


def archimedean_key(w: Word) -> tuple[int, Monomial]:
    """(lowest degree, first lowest monomial) of a nontrivial word.

    w and w^-1 share it, since their lowest parts are negatives of each other.
    """
    lt = lowest_term(w)
    return (lt.degree, lt.part[0][0])


LT, EQ, GT = -1, 0, 1


def sign(w: Word) -> int:
    """0 for the identity, else the sign of the first lowest-term coefficient."""
    if w.is_identity:
        return 0
    first_coeff = lowest_term(w).part[0][1]
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
    if f.is_identity or g.is_identity:
        raise TrivialElementError("infinitesimality is defined for non-identity elements")
    return archimedean_key(f) > archimedean_key(g)


def in_gamma(w: Word, k: int) -> bool:
    """Membership in the k-th lower central series term of the free group."""
    if k < 1:
        raise ValueError("central series index must be >= 1")
    if k == 1:
        return True
    s = expand(w, k - 1)
    return all(not m for m in s.coeffs)
