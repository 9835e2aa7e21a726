"""Bi-orderability decision procedures for groups presented as Z x| F_n.

A knot record carries the monodromy map phi (the t-conjugation on the fiber
free group).  The analyzer checks once that phi is an automorphism (by its
inverse images, or by folding its images: freegroup.verify_automorphism),
and takes char(M) of M = abelianized(phi) once, the polynomial of level 0.  Every higher level's
polynomial is read from it by lcs.level_pieces (Brandt, Newton), one piece
per composition of the level's degree over the factor blocks f^e of char(M)
that level 0's factor report gives, and each piece is factored on its own:
one rule for every level.  It factors each level over Q, counts positive
real roots exactly, and combines these rules in the order R1, R2, R4, R3, R5:

  R1  fibered and char(M) has no positive real root      -> NOT_BIORDERABLE
  R2  char(M) has no rational root and some irreducible
      factor of char(M) has no positive real root        -> NOT_BIORDERABLE
  R4  fibered and all roots of char(M) positive and real -> BIORDERABLE
  R3  some irreducible factor of char(N) at level 1 has
      no positive real root                              -> NOT_BIORDERABLE
  R5  otherwise                                          -> NO_OBSTRUCTION_FOUND

Every premise is a function of the fibered flag and the factor reports of
levels 0 and 1 alone: the irreducible factors of char(M) and char(N) over Q,
their multiplicities and their positive-root counts.  Premise flags for every
rule are recorded even when the rule does not fire.

The roots of a level are products of roots of char(M), so factors of lower
levels come back: 6_2's char(M) divides its level-2 polynomial three times.
One analysis keeps one record of the irreducibles found so far and their
root counts, passed to factor_over_Q at every level: each piece is divided
by them first, and only what is left is factored and gets root counts:
one Sturm chain per factor of degree >= 4, while degree <= 3 is read off
the discriminant and Descartes' rule.  The record is made by analyze and
dropped with it.  At levels 2 and 3 analyze also hands factor_over_Q the
level's lcs.orbit_factors, built only if a part would take the modular
route: the Galois orbits of the monomials in char(M)'s roots, which factor
such a part by trial division when char(M)'s group is large enough.
"""

from __future__ import annotations

import functools

from ._record import Record
from .exactalg import FactorReport, Poly, char_poly, factor_over_Q
from .freegroup import NotAnAutomorphismError, verify_automorphism
from .lcs import (DEGREE_CAP, QuotientAction, abelianized, level_pieces,
                  orbit_factors, quotient_actions, witt_number)
from .presentation import KnotRecord

NOT_BIORDERABLE = "NOT_BIORDERABLE"
BIORDERABLE = "BIORDERABLE"
NO_OBSTRUCTION_FOUND = "NO_OBSTRUCTION_FOUND"


class InconsistentPremisesError(RuntimeError):
    """Mutually exclusive rule premises fired; the input falsifies the theory."""


class AnalysisError(ValueError):
    """The analysis cannot proceed (degree cap exceeded, bad level, ...)."""


JUSTIFICATIONS = {
    "R1": ("fibered necessity criterion: a fibered knot with bi-orderable group "
           "has an Alexander polynomial with at least one positive real root, "
           "and char(M) has none"),
    "R2": ("level-0 block obstruction: char(M) has no rational root, so any two "
           "elements outside the commutator subgroup are comparable and the "
           "induced order descends to the abelianized semidirect product; that "
           "group is bi-orderable only if every irreducible block of M has a "
           "positive real eigenvalue, and some block has none"),
    "R3": ("level-1 block obstruction: the action induced on the rank of basic "
           "commutators has an irreducible rational block without a positive "
           "real eigenvalue, whose primary subspace contains nonzero rational "
           "vectors; the infinitesimal-subgroup argument turns this into a "
           "contradiction with any bi-order"),
    "R4": ("fibered sufficiency criterion: all roots of the Alexander polynomial "
           "are real and positive, so the knot group is bi-orderable"),
}


class LevelReport(Record):
    """Everything computed about one quotient level."""

    level: int                       # 0 = abelianization, 1 = basic commutators, ...
    action: QuotientAction
    factors: FactorReport            # factors.input is the characteristic polynomial


class Verdict(Record):
    outcome: str
    level: int | None
    rule: str | None
    justification: str


class AnalysisReport(Record):
    record: KnotRecord
    levels: tuple[LevelReport, ...]
    premises: dict[str, bool | None]
    verdict: Verdict


def level_report(action: QuotientAction, level: int, pieces: list[Poly],
                 known: dict, orbits=None) -> LevelReport:
    """The level's factor report, from pieces whose product is its
    characteristic polynomial, and its action for display; known is the
    analysis's record of irreducibles (see factor_over_Q), which it extends,
    and orbits, when given, builds the level's certified orbit factors."""
    return LevelReport(level, action, factor_over_Q(*pieces, known=known, orbits=orbits))


def combine_rules(premises: dict[str, bool | None], max_level: int) -> Verdict:
    """Pure rule combination over premise flags, in the order R1, R2, R4, R3, R5."""
    if premises.get("R1") and premises.get("R4"):
        raise InconsistentPremisesError(
            "R1 (no positive real root) and R4 (all roots positive real) both fired")
    for rule, outcome, level in (("R1", NOT_BIORDERABLE, 0), ("R2", NOT_BIORDERABLE, 0),
                                 ("R4", BIORDERABLE, 0), ("R3", NOT_BIORDERABLE, 1)):
        if premises.get(rule):
            return Verdict(outcome, level, rule, JUSTIFICATIONS[rule])
    return Verdict(NO_OBSTRUCTION_FOUND, max_level, None,
                   f"no obstruction found through level {max_level}")


def require_automorphism(record: KnotRecord) -> None:
    """verify_automorphism on the monodromy, its error naming the knot."""
    try:
        verify_automorphism(record.phi)
    except NotAnAutomorphismError as exc:
        raise NotAnAutomorphismError(
            f"{record.name}: monodromy is not an automorphism ({exc})") from None


def analyze(record: KnotRecord, max_level: int = 1,
            max_degree: int = 8) -> AnalysisReport:
    """Full level-by-level analysis with the combined verdict; phi is checked here."""
    if not 0 <= max_level <= DEGREE_CAP - 1:
        raise AnalysisError(f"max_level must be in 0..{DEGREE_CAP - 1}")
    require_automorphism(record)
    for lv in range(max_level + 1):
        degree = witt_number(record.rank, lv + 1)  # the level's polynomial degree
        if degree == 0:
            raise AnalysisError(
                f"level {lv} is trivial at rank {record.rank} (Witt number 0); "
                f"analyze at most level {lv - 1}")
        if degree > max_degree:
            raise AnalysisError(
                f"characteristic polynomial degree {degree} exceeds cap {max_degree}")
    m = abelianized(record.phi)
    actions = quotient_actions(m, max_level + 1)
    known: dict = {}  # irreducibles found so far -> root counts, for this analysis only
    levels = [level_report(actions[0], 0, [char_poly(m)], known)]
    char_m = levels[0].factors
    blocks = [(f.poly, f.multiplicity) for f in char_m.factors]
    for lv in range(1, max_level + 1):
        # no part of a level-1 piece reaches the modular route at rank <= 4
        orbits = functools.partial(orbit_factors, blocks, lv + 1) if lv >= 2 else None
        levels.append(level_report(actions[lv], lv, level_pieces(blocks, lv + 1), known,
                                   orbits))
    # positive roots of char(M), counted with multiplicity
    positive = sum(f.multiplicity * f.positive_real_roots for f in char_m.factors)
    premises: dict[str, bool | None] = {
        "R1": record.fibered and positive == 0,
        "R2": (not char_m.has_rational_root) and char_m.some_factor_all_lambda,
        "R3": levels[1].factors.some_factor_all_lambda if max_level >= 1 else None,
        "R4": record.fibered and positive == char_m.input.degree,
    }
    verdict = combine_rules(premises, max_level)
    return AnalysisReport(record, tuple(levels), premises, verdict)
