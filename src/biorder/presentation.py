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
optional; when present it must be complete and lets verification confirm the
map is an automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import (FreeMap, Word, check_generator_names, format_word,
                        parse_word)
from .verdict import KnotRecord


class PresentationError(ValueError):
    """Malformed presentation file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class PresentationFile:
    name: str
    fibered: bool
    generator_names: tuple[str, ...]
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None
    comments: tuple[str, ...] = ()

    def free_map(self) -> FreeMap:
        return FreeMap(len(self.generator_names), self.images, self.inverse_images)

    def record(self) -> KnotRecord:
        return KnotRecord(name=self.name, phi=self.free_map(), fibered=self.fibered,
                          generator_names=self.generator_names)


def parse_presentation(text: str) -> PresentationFile:
    name = None
    fibered = None
    names: list[str] = []
    comments: list[str] = []
    maps: dict[str, dict[str, Word]] = {"map": {}, "inverse": {}}
    map_lines: dict[str, dict[str, int]] = {"map": {}, "inverse": {}}
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
            map_lines[block][lhs] = lineno
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "name":
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
        elif key == "map":
            if not names:
                raise PresentationError("map block before generators", lineno)
            block = "map"
        elif key == "inverse":
            if not names:
                raise PresentationError("inverse block before generators", lineno)
            block = "inverse"
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
    if maps["inverse"]:
        for g in names:
            if g not in maps["inverse"]:
                raise PresentationError(f"missing inverse line for generator {g!r}")
        inverse_images = tuple(maps["inverse"][g] for g in names)
    return PresentationFile(name=name, fibered=fibered, generator_names=tuple(names),
                            images=images, inverse_images=inverse_images,
                            comments=tuple(comments))


def serialize_presentation(pf: PresentationFile) -> str:
    """Canonical byte-exact form: comments, name, fibered, generators, map, inverse."""
    lines = list(pf.comments)
    lines.append(f"name: {pf.name}")
    lines.append(f"fibered: {'true' if pf.fibered else 'false'}")
    lines.append(f"generators: {' '.join(pf.generator_names)}")
    lines.append("map:")
    for g, w in zip(pf.generator_names, pf.images):
        lines.append(f"  {g} -> {format_word(w, pf.generator_names)}")
    if pf.inverse_images is not None:
        lines.append("inverse:")
        for g, w in zip(pf.generator_names, pf.inverse_images):
            lines.append(f"  {g} -> {format_word(w, pf.generator_names)}")
    return "\n".join(lines) + "\n"
