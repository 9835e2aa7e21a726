"""Seeded input generation for the benchmark workloads.

Words are handled here with the benchmark's own code, never the program's:
a word is a tuple of nonzero ints, ``g + 1`` for generator ``g`` and
``-(g + 1)`` for its inverse, always freely reduced.  The program only ever
receives the presentation texts and probe arguments built from them.
"""

from __future__ import annotations

import random


def reduce_word(letters) -> tuple:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert_word(w) -> tuple:
    return tuple(-a for a in reversed(w))


def substitute(images, w) -> tuple:
    """Image of w under the endomorphism sending generator g to images[g]."""
    out: list[int] = []
    for a in w:
        for b in images[a - 1] if a > 0 else invert_word(images[-a - 1]):
            if out and out[-1] == -b:
                out.pop()
            else:
                out.append(b)
    return tuple(out)


def commutator_word(u, v) -> tuple:
    """[u, v] = u v u^-1 v^-1, the program's convention."""
    return reduce_word(u + v + invert_word(u) + invert_word(v))


def word_text(w, names: str) -> str:
    if not w:
        return "e"
    return " ".join(names[a - 1] if a > 0 else names[-a - 1].upper() for a in w)


def random_reduced_word(rng: random.Random, rank: int, length: int) -> tuple:
    out: list[int] = []
    while len(out) < length:
        a = rng.choice((1, -1)) * (rng.randrange(rank) + 1)
        if not out or out[-1] != -a:
            out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# automorphisms as products of Nielsen moves
# ---------------------------------------------------------------------------

def nielsen_move(rng: random.Random, rank: int) -> tuple[tuple, tuple]:
    """One elementary Nielsen move and its inverse, as generator images."""
    fwd = [(g + 1,) for g in range(rank)]
    back = list(fwd)
    kind = rng.choices(("right", "left", "invert", "swap"), weights=(4, 4, 1, 1))[0]
    i = rng.randrange(rank)
    j = rng.choice([g for g in range(rank) if g != i])
    if kind == "invert":
        fwd[i] = back[i] = (-(i + 1),)
    elif kind == "swap":
        fwd[i], fwd[j] = (j + 1,), (i + 1,)
        back = list(fwd)
    else:
        e = rng.choice((1, -1)) * (j + 1)
        if kind == "right":
            fwd[i], back[i] = (i + 1, e), (i + 1, -e)
        else:
            fwd[i], back[i] = (e, i + 1), (-e, i + 1)
    return tuple(fwd), tuple(back)


def random_automorphism(rng: random.Random, rank: int, moves: int) -> tuple[tuple, tuple]:
    """(images, inverse images) of a product of `moves` Nielsen moves."""
    images = tuple((g + 1,) for g in range(rank))
    inverse = images
    for _ in range(moves):
        fwd, back = nielsen_move(rng, rank)
        images = tuple(substitute(images, w) for w in fwd)
        inverse = tuple(substitute(back, w) for w in inverse)
    return images, inverse


def exponent_matrix(images, rank: int) -> list[list[int]]:
    """Column j holds the exponent sums of images[j]."""
    m = [[0] * rank for _ in range(rank)]
    for j, w in enumerate(images):
        for a in w:
            m[abs(a) - 1][j] += 1 if a > 0 else -1
    return m


def presentation_text(name: str, fibered: bool, names: str, images, inverse) -> str:
    lines = [f"name: {name}", f"fibered: {'true' if fibered else 'false'}",
             "generators: " + " ".join(names), "map:"]
    lines += [f"  {g} -> {word_text(w, names)}" for g, w in zip(names, images)]
    lines.append("inverse:")
    lines += [f"  {g} -> {word_text(w, names)}" for g, w in zip(names, inverse)]
    return "\n".join(lines) + "\n"


def read_presentation(text: str) -> tuple[str, bool, tuple]:
    """(generator names, fibered, map images) of a presentation text."""
    names, fibered, images, block = "", True, {}, None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "->" in body:
            if block == "map":
                lhs, rhs = (s.strip() for s in body.split("->", 1))
                images[lhs] = tuple(names.index(t) + 1 if t.islower() else -(names.index(t.lower()) + 1)
                                    for t in rhs.split() if t != "e")
            continue
        key, _, value = body.partition(":")
        if key == "generators":
            names = "".join(value.split())
        elif key == "fibered":
            fibered = value.strip() == "true"
        block = key if key in ("map", "inverse") else None
    return names, fibered, tuple(reduce_word(images[g]) for g in names)
