"""Line-oriented presentation files for knot groups Z x| F_n.

Format (canonical serialization is byte-exact):

    # optional comment lines
    name: 6_2
    fibered: true
    generators: x a b c
    map:
      x -> x x b
      a -> B X
    inverse:
      x -> x a
      ...

Words use the usual convention: lowercase = generator, uppercase = inverse,
`e` = identity, so `e` cannot name a generator.  The `inverse:` block is
optional; when its header is present the block must be complete, and the map
is checked by one composition with it, else by folding its images.
`name:`, `fibered:` and `generators:` appear once, and `name:` is not empty.
A `map:` or `inverse:` header stands alone on its line.
"""

from __future__ import annotations

from ._record import Record
from .freegroup import (FreeMap, Word, check_generator_names, default_names,
                        format_word, parse_word)


class PresentationError(ValueError):
    """Malformed presentation file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class KnotRecord(Record):
    """A knot group Z x| F_n: name, monodromy phi, and fiberedness flag."""

    name: str
    phi: FreeMap
    fibered: bool
    generator_names: tuple[str, ...]

    def __init__(self, name: str, phi: FreeMap, fibered: bool,
                 generator_names: tuple[str, ...] = ()):
        generator_names = check_generator_names(generator_names or default_names(phi.rank))
        if len(generator_names) != phi.rank:
            raise ValueError("need one generator name per generator")
        super().__init__(name, phi, fibered, generator_names)

    @property
    def rank(self) -> int:
        return self.phi.rank


class PresentationFile(Record):
    """A parsed file: its knot record, built once, and its comment lines."""

    knot: KnotRecord
    comments: tuple[str, ...] = ()

    def free_map(self) -> FreeMap:
        return self.knot.phi

    def record(self) -> KnotRecord:
        return self.knot


def parse_presentation(text: str) -> PresentationFile:
    name = None
    fibered = None
    names: list[str] = []
    comments: list[str] = []
    seen: set[str] = set()
    maps: dict[str, dict[str, Word]] = {"map": {}, "inverse": {}}
    block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            comments.append(line)
            continue
        if line[0] in " \t":
            if block is None:
                raise PresentationError("indented line outside a map block", lineno)
            body = line.strip()
            if "->" not in body:
                raise PresentationError("expected `generator -> word`", lineno)
            lhs, rhs = (part.strip() for part in body.split("->", 1))
            if lhs not in names:
                raise PresentationError(f"unknown generator {lhs!r}", lineno)
            if lhs in maps[block]:
                raise PresentationError(f"duplicate {block} line for {lhs!r}", lineno)
            try:
                maps[block][lhs] = parse_word(rhs, names)
            except ValueError as exc:
                raise PresentationError(str(exc), lineno) from exc
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in seen and key not in maps:  # a map block may be reopened
            raise PresentationError(f"repeated `{key}:` line", lineno)
        seen.add(key)
        if key == "name":
            if not value:
                raise PresentationError("empty `name:` value", lineno)
            name = value
        elif key == "fibered":
            if value not in ("true", "false"):
                raise PresentationError("fibered must be `true` or `false`", lineno)
            fibered = value == "true"
        elif key == "generators":
            names = value.split()
            try:
                check_generator_names(names)
            except ValueError as exc:
                raise PresentationError(str(exc), lineno) from exc
            block = None
        elif key in maps:
            if not names:
                raise PresentationError(f"{key} block before generators", lineno)
            if value:
                raise PresentationError(f"text after `{key}:` header", lineno)
            block = key
        else:
            raise PresentationError(f"unknown directive {key!r}", lineno)

    if name is None:
        raise PresentationError("missing `name:` line")
    if fibered is None:
        raise PresentationError("missing `fibered:` line")
    if not names:
        raise PresentationError("missing `generators:` line")
    for g in names:
        if g not in maps["map"]:
            raise PresentationError(f"missing map line for generator {g!r}")
    images = tuple(maps["map"][g] for g in names)
    inverse_images = None
    if "inverse" in seen:
        for g in names:
            if g not in maps["inverse"]:
                raise PresentationError(f"missing inverse line for generator {g!r}")
        inverse_images = tuple(maps["inverse"][g] for g in names)
    phi = FreeMap(len(names), images, inverse_images)
    return PresentationFile(KnotRecord(name, phi, fibered, tuple(names)), tuple(comments))


def serialize_presentation(pf: PresentationFile) -> str:
    """Canonical byte-exact form: comments, name, fibered, generators, map, inverse."""
    knot, names = pf.knot, pf.knot.generator_names
    lines = list(pf.comments)
    lines.append(f"name: {knot.name}")
    lines.append(f"fibered: {'true' if knot.fibered else 'false'}")
    lines.append(f"generators: {' '.join(names)}")
    lines.append("map:")
    for g, w in zip(names, knot.phi.images):
        lines.append(f"  {g} -> {format_word(w, names)}")
    if knot.phi.inverse_images is not None:
        lines.append("inverse:")
        for g, w in zip(names, knot.phi.inverse_images):
            lines.append(f"  {g} -> {format_word(w, names)}")
    return "\n".join(lines) + "\n"
