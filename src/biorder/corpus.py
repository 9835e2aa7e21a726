"""Bundled knot presentations with expected verdicts for self-test."""

from __future__ import annotations

import os

from ._record import Record
from .presentation import KnotRecord, parse_presentation

CORPUS_NAMES = ("trefoil", "figure8", "6_2", "7_6")

_EXPECTED = {
    "trefoil": ("NOT_BIORDERABLE", "R1", 0),
    "figure8": ("BIORDERABLE", "R4", 0),
    "6_2": ("NOT_BIORDERABLE", "R3", 1),
    "7_6": ("NOT_BIORDERABLE", "R3", 1),
}


class CorpusEntry(Record):
    record: KnotRecord
    expected_outcome: str
    expected_rule: str
    expected_level: int


def corpus_text(name: str) -> str:
    if name not in CORPUS_NAMES:
        raise LookupError(f"unknown corpus knot {name!r}; available: {', '.join(CORPUS_NAMES)}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.knot")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def corpus_entry(name: str) -> CorpusEntry:
    pf = parse_presentation(corpus_text(name))
    outcome, rule, level = _EXPECTED[name]
    return CorpusEntry(record=pf.record(), expected_outcome=outcome,
                       expected_rule=rule, expected_level=level)


def corpus_entries() -> list[CorpusEntry]:
    return [corpus_entry(name) for name in CORPUS_NAMES]
