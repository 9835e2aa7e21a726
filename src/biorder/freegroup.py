"""Reduced words over a finite free generating set and their endomorphisms.

Words are always freely reduced; the empty word is the identity.  A FreeMap
is determined by generator images and realizes the conjugation action t w t^-1
of the stable letter in a semidirect product Z x| F_n.

Textual conventions used at every I/O boundary: words are whitespace-separated
single letters, an uppercase letter is the inverse of the lowercase generator,
and `e` (or an empty string) is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import IntMatrix


class GeneratorRangeError(ValueError):
    """A letter refers to a generator index outside the rank."""


class RankMismatchError(ValueError):
    """Two operands live in free groups of different ranks."""


class NotAnAutomorphismError(ValueError):
    """A FreeMap required to be an automorphism fails the check."""


@dataclass(frozen=True)
class Generator:
    """A free generator: 0-based index plus a single-letter display name."""

    index: int
    name: str

    def __post_init__(self):
        if self.index < 0:
            raise GeneratorRangeError(f"negative generator index {self.index}")
        check_generator_names((self.name,))


@dataclass(frozen=True)
class Word:
    """Freely reduced word; letters are (generator index, sign) pairs."""

    rank: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for g, s in self.letters:
            if not 0 <= g < self.rank:
                raise GeneratorRangeError(f"generator index {g} out of range for rank {self.rank}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")
        for (g1, s1), (g2, s2) in zip(self.letters, self.letters[1:]):
            if g1 == g2 and s1 == -s2:
                raise ValueError("word is not freely reduced")

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __pow__(self, n: int) -> "Word":
        return power(self, n)

    def inverse(self) -> "Word":
        return invert(self)

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponent sum of each generator (the abelianization coordinates)."""
        v = [0] * self.rank
        for g, s in self.letters:
            v[g] += s
        return tuple(v)

    def __repr__(self):
        names = _default_names(self.rank)
        return f"Word({format_word(self, names)!r}, rank={self.rank})"


def _default_names(rank: int) -> tuple[str, ...]:
    if rank > 26:
        raise ValueError("default names support rank <= 26")
    return tuple("abcdefghijklmnopqrstuvwxyz"[:rank])


def identity(rank: int) -> Word:
    return Word(rank, ())


def letter(rank: int, gen: int, sign: int = 1) -> Word:
    return Word(rank, ((gen, sign),))


def reduce(rank: int, letters) -> Word:
    """Freely reduce a raw letter sequence of (generator, sign) pairs."""
    stack: list[tuple[int, int]] = []
    for g, s in letters:
        if not 0 <= g < rank:
            raise GeneratorRangeError(f"generator index {g} out of range for rank {rank}")
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return Word(rank, tuple(stack))


def _check_rank(w1: Word, w2: Word):
    if w1.rank != w2.rank:
        raise RankMismatchError(f"rank mismatch: {w1.rank} vs {w2.rank}")


def multiply(w1: Word, w2: Word) -> Word:
    """Reduced product w1 * w2 (cancellation only happens at the seam)."""
    _check_rank(w1, w2)
    left = list(w1.letters)
    right = w2.letters
    i = 0
    while left and i < len(right) and left[-1][0] == right[i][0] and left[-1][1] == -right[i][1]:
        left.pop()
        i += 1
    return Word(w1.rank, tuple(left) + right[i:])


def invert(w: Word) -> Word:
    return Word(w.rank, tuple((g, -s) for g, s in reversed(w.letters)))


def power(w: Word, n: int) -> Word:
    base = w if n >= 0 else invert(w)
    out = identity(w.rank)
    for _ in range(abs(n)):
        out = multiply(out, base)
    return out


def commutator(w1: Word, w2: Word) -> Word:
    """[w1, w2] = w1 w2 w1^-1 w2^-1."""
    _check_rank(w1, w2)
    return multiply(multiply(w1, w2), multiply(invert(w1), invert(w2)))


def conjugate(w: Word, by: Word) -> Word:
    """by * w * by^-1."""
    return multiply(multiply(by, w), invert(by))


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeMap:
    """Endomorphism of F_n given by one image word per generator.

    inverse_images, when supplied, are the generator images of the claimed
    inverse map; verify_automorphism checks both compositions.
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for w in self.images:
            if w.rank != self.rank:
                raise RankMismatchError("image word has wrong rank")
        if self.inverse_images is not None:
            if len(self.inverse_images) != self.rank:
                raise ValueError("need exactly one inverse image per generator")
            for w in self.inverse_images:
                if w.rank != self.rank:
                    raise RankMismatchError("inverse image word has wrong rank")

    def __call__(self, w: Word) -> Word:
        return apply_map(self, w)


def identity_map(rank: int) -> FreeMap:
    gens = tuple(letter(rank, g) for g in range(rank))
    return FreeMap(rank, gens, gens)


def apply_map(phi: FreeMap, w: Word) -> Word:
    """Substitute each letter by its image (inverted image for negative letters)."""
    if phi.rank != w.rank:
        raise RankMismatchError(f"rank mismatch: map {phi.rank} vs word {w.rank}")
    out = identity(w.rank)
    for g, s in w.letters:
        img = phi.images[g]
        out = multiply(out, img if s == 1 else invert(img))
    return out


def compose(phi: FreeMap, psi: FreeMap) -> FreeMap:
    """(phi o psi)(g) = phi(psi(g)); inverses compose in the opposite order."""
    if phi.rank != psi.rank:
        raise RankMismatchError(f"rank mismatch: {phi.rank} vs {psi.rank}")
    images = tuple(apply_map(phi, w) for w in psi.images)
    inverse = None
    if phi.inverse_images is not None and psi.inverse_images is not None:
        psi_inv = FreeMap(psi.rank, psi.inverse_images)
        inverse = tuple(apply_map(psi_inv, w) for w in phi.inverse_images)
    return FreeMap(phi.rank, images, inverse)


def inverse_map(phi: FreeMap) -> FreeMap:
    if phi.inverse_images is None:
        raise NotAnAutomorphismError("map carries no inverse images")
    return FreeMap(phi.rank, phi.inverse_images, phi.images)


def iterate_map(phi: FreeMap, n: int) -> FreeMap:
    """phi^n; negative n requires inverse images."""
    base = phi if n >= 0 else inverse_map(phi)
    out = identity_map(phi.rank)
    for _ in range(abs(n)):
        out = compose(base, out)
    return out


def abelianized(phi: FreeMap) -> IntMatrix:
    """Exponent-sum matrix; column j is the abelianization of images[j]."""
    cols = [w.exponent_vector() for w in phi.images]
    return IntMatrix.from_rows([[cols[j][i] for j in range(phi.rank)]
                                for i in range(phi.rank)])


CONFIRMED = "CONFIRMED"
NECESSARY_ONLY = "NECESSARY-ONLY"
NOT_AN_AUTOMORPHISM = "NOT_AN_AUTOMORPHISM"


@dataclass(frozen=True)
class AutomorphismReport:
    status: str
    determinant: int
    detail: str = ""

    @property
    def is_automorphism_candidate(self) -> bool:
        return self.status in (CONFIRMED, NECESSARY_ONLY)


def verify_automorphism(phi: FreeMap) -> AutomorphismReport:
    """Check whether phi is (or can be) an automorphism.

    With inverse images present, both compositions must fix every generator
    (CONFIRMED).  Without them, only |det| = 1 of the abelianized matrix can
    be checked (NECESSARY-ONLY): it is necessary but not sufficient.
    """
    det = abelianized(phi).det()
    if phi.inverse_images is not None:
        psi = FreeMap(phi.rank, phi.inverse_images)
        for g in range(phi.rank):
            gen = letter(phi.rank, g)
            if apply_map(phi, psi.images[g]) != gen:
                return AutomorphismReport(NOT_AN_AUTOMORPHISM, det,
                                          f"phi(inverse(x{g})) != x{g}")
            if apply_map(psi, phi.images[g]) != gen:
                return AutomorphismReport(NOT_AN_AUTOMORPHISM, det,
                                          f"inverse(phi(x{g})) != x{g}")
        return AutomorphismReport(CONFIRMED, det, "both compositions fix every generator")
    if abs(det) != 1:
        return AutomorphismReport(NOT_AN_AUTOMORPHISM, det,
                                  f"abelianized determinant is {det}, not +-1")
    return AutomorphismReport(NECESSARY_ONLY, det,
                              "no inverse supplied; determinant check passed")


# ---------------------------------------------------------------------------
# textual word syntax
# ---------------------------------------------------------------------------

def check_generator_names(names) -> tuple[str, ...]:
    """The names as a tuple, if non-empty, distinct and each one lowercase
    letter other than `e` (which spells the identity word)."""
    names = tuple(names)
    if not names:
        raise ValueError("empty generator list")
    for g in names:
        if len(g) != 1 or not ("a" <= g <= "z"):
            raise ValueError(f"generator {g!r} must be one lowercase letter")
        if g == "e":
            raise ValueError("generator 'e' is reserved for the identity word")
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    return names


def parse_word(text: str, names) -> Word:
    """Parse `B X`-style text: lowercase = generator, uppercase = inverse, e = identity."""
    names = list(names)
    rank = len(names)
    tokens = text.split()
    if tokens == ["e"] or not tokens:
        return identity(rank)
    letters = []
    for tok in tokens:
        if len(tok) != 1:
            raise ValueError(f"unreadable word token {tok!r}")
        low = tok.lower()
        if low not in names:
            raise ValueError(f"unknown generator {tok!r}")
        letters.append((names.index(low), 1 if tok.islower() else -1))
    return reduce(rank, letters)


def format_word(w: Word, names) -> str:
    names = list(names)
    if w.is_identity:
        return "e"
    return " ".join(names[g] if s == 1 else names[g].upper() for g, s in w.letters)


# ---------------------------------------------------------------------------
# sampling (probe and test plumbing)
# ---------------------------------------------------------------------------

def random_word(rng, rank: int, max_length: int, allow_identity: bool = False) -> Word:
    """Uniformly random reduced word of length <= max_length (>= 1 unless allowed)."""
    low = 0 if allow_identity else 1
    length = rng.randint(low, max_length)
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        g = rng.randrange(rank)
        s = rng.choice((1, -1))
        if letters and letters[-1] == (g, -s):
            continue
        letters.append((g, s))
    return Word(rank, tuple(letters))
