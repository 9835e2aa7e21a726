"""Reduced words over a finite free generating set and their endomorphisms.

Words are always freely reduced; the empty word is the identity.  A FreeMap
is determined by generator images and realizes the conjugation action t w t^-1
of the stable letter in a semidirect product Z x| F_n.

Textual conventions used at every I/O boundary: words are whitespace-separated
single letters, an uppercase letter is the inverse of the lowercase generator,
and `e` (or an empty string) is the identity.

A word is validated where its letters come from outside: `Word(...)` built by
a caller checks generator range, signs and reduction; `parse_word` reads each
token through one table of the names and their upper cases, so every letter
it makes is valid, and cancels letters on a stack as it reads them.  Words
derived from valid words (`multiply`, `invert`, `_substitute`, and so `power`,
`commutator`, `conjugate`, `substitution`, `apply_map` and `compose`) and the
words `random_word` draws (generators in range, no letter followed by its
inverse) are reduced by construction and skip the check; `multiply` and
`_substitute`, the one route of every map application, cancel letters only at
the seams where two such words meet.
"""

from __future__ import annotations

from ._record import Record


class GeneratorRangeError(ValueError):
    """A letter refers to a generator index outside the rank."""


class RankMismatchError(ValueError):
    """Two operands live in free groups of different ranks."""


class NotAnAutomorphismError(ValueError):
    """A FreeMap required to be an automorphism fails the check."""


class Word(Record):
    """Freely reduced word; letters are (generator index, sign) pairs."""

    rank: int
    letters: tuple[tuple[int, int], ...]

    def __init__(self, rank: int, letters: tuple[tuple[int, int], ...]):
        for g, s in letters:
            if not 0 <= g < rank:
                raise GeneratorRangeError(f"generator index {g} out of range for rank {rank}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")
        for (g1, s1), (g2, s2) in zip(letters, letters[1:]):
            if g1 == g2 and s1 == -s2:
                raise ValueError("word is not freely reduced")
        super().__init__(rank, letters)

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponent sum of each generator (the abelianization coordinates)."""
        v = [0] * self.rank
        for g, s in self.letters:
            v[g] += s
        return tuple(v)

    def __repr__(self):
        if self.rank > 25:  # past the default names: the constructor's own form
            return f"Word({self.rank}, {self.letters!r})"
        return f"Word({format_word(self, default_names(self.rank))!r}, rank={self.rank})"


_bind_rank, _bind_letters = Word._setters


def _word(rank: int, letters: tuple[tuple[int, int], ...]) -> Word:
    """A Word from letters already known to be valid and freely reduced,
    its slots bound by the setters the Record base collected."""
    w = object.__new__(Word)
    _bind_rank(w, rank)
    _bind_letters(w, letters)
    return w


def default_names(rank: int) -> tuple[str, ...]:
    """The first `rank` lowercase letters, skipping `e` (the identity word)."""
    if rank > 25:
        raise ValueError("default names support rank <= 25")
    return tuple("abcdfghijklmnopqrstuvwxyz"[:rank])


def identity(rank: int) -> Word:
    return Word(rank, ())


def letter(rank: int, gen: int, sign: int = 1) -> Word:
    return Word(rank, ((gen, sign),))


def _check_rank(w1: Word, w2: Word):
    if w1.rank != w2.rank:
        raise RankMismatchError(f"rank mismatch: {w1.rank} vs {w2.rank}")


def multiply(w1: Word, w2: Word) -> Word:
    """Reduced product w1 * w2 (cancellation only happens at the seam)."""
    _check_rank(w1, w2)
    a, b = w1.letters, w2.letters
    n, i = len(a), 0
    while i < n and i < len(b) and a[n - 1 - i][0] == b[i][0] and a[n - 1 - i][1] == -b[i][1]:
        i += 1
    return _word(w1.rank, a[:n - i] + b[i:])


def invert(w: Word) -> Word:
    return _word(w.rank, tuple((g, -s) for g, s in reversed(w.letters)))


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

class FreeMap(Record):
    """Endomorphism of F_n given by one image word per generator.

    inverse_images, when supplied, are the generator images of the claimed
    inverse map; verify_automorphism checks one composition with them, which
    suffices because F_n is Hopfian, and without them folds the images.
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None

    def __init__(self, rank: int, images: tuple[Word, ...],
                 inverse_images: tuple[Word, ...] | None = None):
        if len(images) != rank:
            raise ValueError("need exactly one image per generator")
        for w in images:
            if w.rank != rank:
                raise RankMismatchError("image word has wrong rank")
        if inverse_images is not None:
            if len(inverse_images) != rank:
                raise ValueError("need exactly one inverse image per generator")
            for w in inverse_images:
                if w.rank != rank:
                    raise RankMismatchError("inverse image word has wrong rank")
        super().__init__(rank, images, inverse_images)


def identity_map(rank: int) -> FreeMap:
    gens = tuple(letter(rank, g) for g in range(rank))
    return FreeMap(rank, gens, gens)


def apply_map(phi: FreeMap, w: Word) -> Word:
    """phi(w), through substitution(phi)."""
    return substitution(phi)(w)


def substitution(phi: FreeMap):
    """w -> phi(w), the inverted images built once here, not per letter."""
    images = phi.images
    inverted = tuple(invert(x) for x in images)

    def substitute(w: Word) -> Word:
        if phi.rank != w.rank:
            raise RankMismatchError(f"rank mismatch: map {phi.rank} vs word {w.rank}")
        return _substitute(images, inverted, w)

    return substitute


def _substitute(images, inverted, w: Word) -> Word:
    """phi(w) from the images of the generators and of their inverses; the
    images are reduced, so letters cancel only where each one meets the output."""
    out: list[tuple[int, int]] = []
    for g, s in w.letters:
        block = images[g].letters if s == 1 else inverted[g].letters
        i = 0
        while out and i < len(block) and out[-1][0] == block[i][0] and out[-1][1] == -block[i][1]:
            out.pop()
            i += 1
        out.extend(block[i:])
    return _word(w.rank, tuple(out))


def compose(phi: FreeMap, psi: FreeMap) -> FreeMap:
    """(phi o psi)(g) = phi(psi(g)); inverses compose in the opposite order."""
    if phi.rank != psi.rank:
        raise RankMismatchError(f"rank mismatch: {phi.rank} vs {psi.rank}")
    images = tuple(map(substitution(phi), psi.images))
    inverse = None
    if phi.inverse_images is not None and psi.inverse_images is not None:
        psi_inv = FreeMap(psi.rank, psi.inverse_images)
        inverse = tuple(map(substitution(psi_inv), phi.inverse_images))
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


def verify_automorphism(phi: FreeMap) -> None:
    """Raise NotAnAutomorphismError unless phi is onto, and so an automorphism:
    F_n is finitely generated and residually finite, so Hopfian.  With inverse
    images psi, phi(psi(x)) = x for every generator x shows it, and makes
    psi = phi^-1, so psi(phi(x)) = x needs no check; without them, Stallings
    folding decides whether the images generate F_n (_images_generate)."""
    if phi.inverse_images is None:
        if not _images_generate(phi):
            raise NotAnAutomorphismError("the images of phi do not generate F_n")
        return
    image = substitution(phi)
    for g, w in enumerate(phi.inverse_images):
        if image(w).letters != ((g, 1),):
            raise NotAnAutomorphismError(f"phi(inverse(x{g})) != x{g}")


def _images_generate(phi: FreeMap) -> bool:
    """Stallings folding (Invent. Math. 71, 1983; Kapovich-Myasnikov, J. Algebra
    248, 2002): a closed path per image spells it from a base vertex 0, and the
    ends of two edges that leave one vertex with one label merge (union-find)
    until no such pair is left.  The result depends only on the subgroup the
    images generate, and F_n's is one vertex that all 2n labels leave."""
    out, merges = [{}], []  # out[v]: label (g, +-1) -> the end of an edge leaving v
    for w in phi.images:
        path = [0, *range(len(out), len(out) + len(w) - 1), 0]
        out += ({} for _ in path[2:])
        for u, v, (g, s) in zip(path, path[1:], w.letters):
            merges += ((out[u].setdefault((g, s), v), v), (out[v].setdefault((g, -s), u), u))
    root = list(range(len(out)))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    while merges:
        a, b = map(find, merges.pop())
        if a != b:
            if len(out[a]) < len(out[b]):
                a, b = b, a
            root[b] = a
            merges += ((out[a].setdefault(label, t), t) for label, t in out[b].items())
    base = find(0)
    return len(out[base]) == 2 * phi.rank and all(find(v) == base for v in range(len(out)))


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
    """Parse `B X`-style text: lowercase = generator, uppercase = inverse, e = identity.

    Each token is looked up in one table of the names and their upper cases
    (a repeated name keeps its first index), and cancels its inverse on a
    stack as it is read."""
    table = {}
    for i, g in enumerate(names):
        if g not in table:
            table[g], table[g.upper()] = (i, 1), (i, -1)
    tokens = text.split()
    if tokens == ["e"]:
        tokens = []
    stack = []
    for tok in tokens:
        found = table.get(tok)
        if found is None:
            raise ValueError(f"unknown generator {tok!r}" if len(tok) == 1
                             else f"unreadable word token {tok!r}")
        if stack and stack[-1] == (found[0], -found[1]):
            stack.pop()
        else:
            stack.append(found)
    return _word(len(names), tuple(stack))


def format_word(w: Word, names) -> str:
    names = list(names)
    if w.is_identity:
        return "e"
    return " ".join(names[g] if s == 1 else names[g].upper() for g, s in w.letters)


# ---------------------------------------------------------------------------
# sampling (probe and test plumbing)
# ---------------------------------------------------------------------------

def random_word(rng, rank: int, max_length: int, allow_identity: bool = False) -> Word:
    """Random reduced word of length <= max_length (>= 1 unless allowed).

    The length is uniform; the word is then uniform among the reduced words
    of that length (not uniform over all reduced words).  Every draw is a
    rejection draw below(n): getrandbits(n.bit_length()) until the result is
    < n.  The length is low + below(max_length + 1 - low); each letter is
    generator below(rank), then sign index below(2) (0 is +1), and a letter
    that cancels the previous one is dropped after both draws.  These are the
    draws `randint`, `randrange` and `choice((1, -1))` make, so the words and
    the rng state after them are the same as with those calls.
    """
    low = 0 if allow_identity else 1
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_length < low:
        raise ValueError(f"max_length must be >= {low}, got {max_length}")
    bits = rng.getrandbits
    span = max_length + 1 - low
    k = span.bit_length()
    length = bits(k)
    while length >= span:
        length = bits(k)
    length += low
    k = rank.bit_length()
    letters: list[tuple[int, int]] = []
    last_g = last_s = -1
    while len(letters) < length:
        g = bits(k)
        while g >= rank:
            g = bits(k)
        s = bits(2)
        while s >= 2:
            s = bits(2)
        if g == last_g and s != last_s:  # x_g^(+-1) right after its inverse
            continue
        letters.append((g, 1 - 2 * s))
        last_g, last_s = g, s
    return _word(rank, tuple(letters))
