import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

import biorder
from biorder import exactalg, freegroup, lcs, verdict
from biorder.corpus import corpus_entries, corpus_entry
from biorder.exactalg import (IntMatrix, Poly, all_roots_positive_real,
                              char_poly, factor_over_Q, has_positive_real_root,
                              rational_roots)
from biorder.freegroup import (FreeMap, NotAnAutomorphismError, Word,
                               compose, conjugate, invert,
                               inverse_map, iterate_map, letter, multiply,
                               power, verify_automorphism)
from biorder.lcs import abelianized
from biorder.presentation import (KnotRecord, PresentationFile, parse_presentation,
                                  serialize_presentation)
from biorder.verdict import (AnalysisError, BIORDERABLE,
                             InconsistentPremisesError,
                             NO_OBSTRUCTION_FOUND, NOT_BIORDERABLE, analyze,
                             combine_rules)
from helpers import (A4_UNIT_QUARTICS, W, brandt_level_char_poly, cofactor_char_poly,
                     companion_map,
                     divmod_q, factor_canonical_by_yun,
                     random_automorphism, random_unimodular_matrix,
                     root_counts_by_sturm_chain, torus_monodromy)

SRC = Path(__file__).resolve().parents[1] / "src"


def knot(name):
    return corpus_entry(name).record


def without_inverse(record: KnotRecord) -> KnotRecord:
    """The record with its monodromy's inverse images dropped."""
    phi = FreeMap(record.rank, record.phi.images)
    return KnotRecord(record.name, phi, record.fibered, record.generator_names)


def test_biorderable_matrix_has_positive_eigenvalue():
    """Z x| Z^d is bi-orderable iff every irreducible block of A has a positive
    eigenvalue, and then A has one: the factor flags against a Sturm count of
    the whole characteristic polynomial."""
    rng = random.Random(51)
    biorderable = 0
    for _ in range(200):
        m = random_unimodular_matrix(rng, rng.randint(2, 4))
        report = factor_over_Q(char_poly(m))
        positive = has_positive_real_root(report.input)
        if report.all_factors_have_positive_root:
            biorderable += 1
            assert positive
        assert positive == any(f.positive_real_roots for f in report.factors)
    assert biorderable


def level0_premises(record):
    return analyze(record, max_level=0).premises


class TestFiberedCriteria:
    def test_figure8_sufficient(self):
        report = analyze(knot("figure8"), max_level=0)
        assert report.premises["R4"]
        assert report.verdict.outcome == BIORDERABLE

    def test_trefoil_no_sufficiency_conclusion(self):
        assert not level0_premises(knot("trefoil"))["R4"]

    def test_6_2_no_sufficiency_conclusion(self):
        assert not level0_premises(knot("6_2"))["R4"]

    def test_trefoil_necessary_fires(self):
        report = analyze(knot("trefoil"), max_level=0)
        assert report.premises["R1"]
        assert report.verdict.outcome == NOT_BIORDERABLE

    def test_figure8_no_necessity_conclusion(self):
        assert not level0_premises(knot("figure8"))["R1"]

    def test_fibered_flag_gates_both_rules(self):
        trefoil = knot("trefoil")
        unflagged = KnotRecord(name="not-fibered", phi=trefoil.phi, fibered=False,
                               generator_names=trefoil.generator_names)
        premises = level0_premises(unflagged)
        assert premises["R1"] is False
        assert premises["R4"] is False


class TestPremisesAgainstRootPredicates:
    """Premises read off the factor report agree with the root predicates
    applied directly to a cofactor-expansion char(M)."""

    def check(self, record):
        report = analyze(record, max_level=0)
        cp = cofactor_char_poly(abelianized(record.phi))
        assert report.levels[0].factors.input == cp
        assert report.premises["R1"] == (record.fibered and not has_positive_real_root(cp))
        assert report.premises["R4"] == (record.fibered and all_roots_positive_real(cp))
        assert report.levels[0].factors.has_rational_root == bool(rational_roots(cp))
        return report

    def test_corpus(self):
        for entry in corpus_entries():
            self.check(entry.record)

    def test_random_automorphisms(self):
        rng = random.Random(53)
        seen = set()
        for i in range(90):
            rank = 2 + i % 3
            record = KnotRecord(name=f"r{i}", phi=random_automorphism(rng, rank),
                                fibered=i % 2 == 0)
            report = self.check(record)
            seen.update((rule, report.premises[rule]) for rule in ("R1", "R4"))
            seen.add(("rational", report.levels[0].factors.has_rational_root))
        assert seen == {(k, v) for k in ("R1", "R4", "rational") for v in (True, False)}


def test_rational_root_flag_is_a_root_at_one_or_minus_one():
    """R2's premise by an identity: M is in GL(Z), so char(M) has leading and
    constant coefficient +-1, and by the rational root theorem its only
    possible rational roots are 1 and -1.  The values at +-1 are the plain and
    the alternating coefficient sums."""
    rng = random.Random(57)
    records = [entry.record for entry in corpus_entries()]
    records += [KnotRecord(name=f"r{i}", phi=random_automorphism(rng, 2 + i % 3),
                           fibered=True) for i in range(300)]
    outcomes = set()
    for record in records:
        level = analyze(record, max_level=0).levels[0]
        coeffs = level.factors.input.coeffs
        at_one = sum(coeffs)
        at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))
        expected = at_one * at_minus_one == 0
        assert level.factors.has_rational_root == expected, coeffs
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_r4_makes_every_level1_root_positive_real():
    """The level-1 roots are the products lambda_i lambda_j, i < j, of roots
    of char(M), so they are positive and real whenever R4 holds."""
    rng = random.Random(54)
    r4 = 0
    for i in range(120):
        record = KnotRecord(name=f"r{i}", phi=random_automorphism(rng, 2 + i % 3),
                            fibered=True)
        report = analyze(record, max_level=1)
        if report.premises["R4"]:
            r4 += 1
            assert all_roots_positive_real(report.levels[1].factors.input), record
    assert r4


def test_r3_and_r4_never_fire_together():
    """Under R4 every root of char(M) is a positive real, so is every root
    lambda_i lambda_j of char(N), and every factor of char(N) has a positive
    root: R3 cannot hold beside R4."""
    rng = random.Random(5)
    records = [knot("figure8")] + [
        KnotRecord(f"r{i}", random_automorphism(rng, 2 + i % 3), True) for i in range(400)]
    r4 = 0
    for record in records:
        premises = analyze(record, max_level=1).premises
        assert not (premises["R3"] and premises["R4"]), record
        r4 += premises["R4"]
    assert r4 >= 50


def test_verdict_is_a_group_invariant():
    """Z x| F_n is the same group for phi, for psi phi psi^-1 (through
    (m, w) -> (m, psi(w))) and for phi^-1 (through t -> t^-1), so the three
    give one (outcome, rule), whatever char(M) each one factors."""
    rng = random.Random(59)
    rules = Counter()
    for i in range(200):
        rank = 2 + i % 3
        phi = random_automorphism(rng, rank)
        psi = random_automorphism(rng, rank)
        fibered = i % 4 != 3
        verdicts = {(v.outcome, v.rule) for v in (
            analyze(KnotRecord(name=f"r{i}", phi=m, fibered=fibered)).verdict
            for m in (phi, compose(psi, compose(phi, inverse_map(psi))), inverse_map(phi)))}
        assert len(verdicts) == 1, (phi, psi, verdicts)
        rules[verdicts.pop()[1]] += 1
    assert set(rules) == {"R1", "R2", "R3", "R4", None}


TORUS_PAIRS = [(p, q) for q in range(3, 22) for p in range(2, q)
               if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 20]


def inner_conjugator(phi: FreeMap) -> Word | None:
    """c with phi(x) = c x c^-1 for every generator x, or None (rank >= 2).

    A reduced conjugate of x_0 reads u x_0 u^-1, so c = u x_0^m, and m is the
    leading x_0-run of u^-1 phi(x_1) u = x_0^m x_1 x_0^-m.
    """
    rank, y = phi.rank, phi.images[0]
    u = Word(rank, y.letters[:(len(y) - 1) // 2])
    z = conjugate(phi.images[1], invert(u)).letters
    run = next((i for i, (g, _) in enumerate(z) if g != 0), len(z))
    c = multiply(u, power(letter(rank, 0), sum(s for _, s in z[:run])))
    if all(phi.images[g] == conjugate(letter(rank, g), c) for g in range(rank)):
        return c
    return None


@pytest.mark.parametrize("p, q", TORUS_PAIRS)
def test_torus_knot_family(p, q):
    """T(p, q), the paper's example: its group <x, y | x^p = y^q> has the
    central x^p, so it is not bi-orderable, and R1 says so at every level."""
    phi = torus_monodromy(p, q)
    for case in (phi, FreeMap(phi.rank, phi.images)):  # by composition, and by folding
        assert verify_automorphism(case) is None
    t = lambda n: Poly([-1] + [0] * (n - 1) + [1])  # t^n - 1
    alexander, rest = divmod_q(t(p * q) * t(1), t(p) * t(q))
    assert rest.is_zero
    assert inner_conjugator(iterate_map(phi, p * q)) is not None
    record = KnotRecord(f"T({p},{q})", phi, True)
    levels = [lv for lv in range(lcs.DEGREE_CAP)
              if lcs.witt_number(phi.rank, lv + 1) <= 100]
    for level in levels:
        report = analyze(record, max_level=level, max_degree=100)
        assert report.levels[0].factors.input == alexander
        assert (report.verdict.outcome, report.verdict.rule) == (NOT_BIORDERABLE, "R1")


@pytest.mark.parametrize("p, q", TORUS_PAIRS)
def test_torus_level1_has_root_one_g_times(p, q):
    """The monodromy keeps the fiber's intersection form, so M is symplectic
    on Z^2g and its roots pair up as lambda, 1/lambda.  Each pair gives one
    root lambda * (1/lambda) = 1 of N on the level-1 quotient.  The roots of
    the torus knot's Alexander polynomial are simple pq-th roots of unity,
    none of them +-1, so no other product of two is 1: t - 1 divides char(N)
    exactly g times."""
    phi = torus_monodromy(p, q)
    g = phi.rank // 2
    char_n, multiplicity = brandt_level_char_poly(abelianized(phi), 2), 0
    while True:
        quotient, rest = divmod_q(char_n, Poly([-1, 1]))
        if not rest.is_zero:
            break
        char_n, multiplicity = quotient, multiplicity + 1
    assert multiplicity == g


def test_inner_conjugator_finds_only_inner_maps():
    rank = 3
    c = W("a B c a", "abc")
    by_c = FreeMap(rank, tuple(conjugate(letter(rank, g), c) for g in range(rank)))
    assert inner_conjugator(by_c) == c
    assert inner_conjugator(torus_monodromy(2, 3)) is None  # phi itself is outer


class TestAnalyze:
    def test_corpus_verdicts_match_expectations(self):
        for entry in corpus_entries():
            report = analyze(entry.record, max_level=1)
            assert report.verdict.outcome == entry.expected_outcome
            assert report.verdict.rule == entry.expected_rule
            assert report.verdict.level == entry.expected_level

    def test_6_2_fires_at_level_one(self):
        report = analyze(knot("6_2"), max_level=1)
        assert report.premises == {"R1": False, "R2": False, "R3": True, "R4": False}
        assert report.verdict.rule == "R3"

    def test_6_2_level_zero_alone_finds_nothing(self):
        report = analyze(knot("6_2"), max_level=0)
        assert report.verdict.outcome == NO_OBSTRUCTION_FOUND
        assert report.premises["R3"] is None

    def test_7_6_matches_6_2_shape(self):
        report = analyze(knot("7_6"), max_level=1)
        assert report.verdict.outcome == NOT_BIORDERABLE
        assert report.verdict.rule == "R3"
        assert report.levels[1].factors.some_factor_all_lambda

    @pytest.mark.parametrize("fibered", [True, False])
    def test_r2_reads_every_factor_of_char_m(self, fibered):
        """char(M) = (t^2 - 3t + 1)(t^2 + t + 1): the factor without a
        positive root sorts second, so R2 must look past the first one."""
        names = "abcd"
        phi = FreeMap(4, tuple(W(t, names) for t in ("b", "A b b b", "d", "C D")),
                      tuple(W(t, names) for t in ("a a a B", "a", "C D", "c")))
        report = analyze(KnotRecord(name="split", phi=phi, fibered=fibered))
        factors = report.levels[0].factors.factors
        assert [f.poly.coeffs for f in factors] == [(1, -3, 1), (1, 1, 1)]
        assert [f.positive_real_roots for f in factors] == [2, 0]
        assert report.premises == {"R1": False, "R2": True, "R3": True, "R4": False}
        assert (report.verdict.outcome, report.verdict.rule) == (NOT_BIORDERABLE, "R2")

    def test_sufficiency_and_obstructions_never_co_fire_on_corpus(self):
        for entry in corpus_entries():
            premises = analyze(entry.record, max_level=1).premises
            if premises["R4"]:
                assert not premises["R1"]
                assert not premises["R2"]
                assert not premises["R3"]

    def test_non_automorphism_rejected(self):
        bad = KnotRecord(name="bad", phi=FreeMap(2, (W("x x"), W("y"))), fibered=True)
        with pytest.raises(NotAnAutomorphismError):
            analyze(bad)

    def test_one_automorphism_check_per_analysis(self, monkeypatch):
        calls = []
        original = freegroup.verify_automorphism

        def counting(phi):
            calls.append(phi)
            return original(phi)

        for module in (freegroup, lcs, verdict):
            monkeypatch.setattr(module, "verify_automorphism", counting)
        for record in (knot("6_2"), without_inverse(knot("6_2"))):
            calls.clear()
            analyze(record, max_level=3, max_degree=100)
            assert calls == [record.phi]

    def test_level_out_of_range(self):
        with pytest.raises(AnalysisError):
            analyze(knot("trefoil"), max_level=9)

    def test_level_at_degree_cap_rejected(self):
        with pytest.raises(AnalysisError, match=r"^max_level must be in 0\.\.3$"):
            analyze(knot("trefoil"), max_level=lcs.DEGREE_CAP)

    def test_analysis_builds_no_fraction(self):
        """The corpus and 60 random maps, analyzed at levels 0 and 1 in a
        fresh interpreter, load none of fractions, decimal and json.  The maps
        travel as presentation text, since the helpers import fractions."""
        rng = random.Random(44)
        texts = []
        for i in range(60):
            phi = random_automorphism(rng, 2 + i % 3)
            names = tuple("abcd"[:phi.rank])
            texts.append(serialize_presentation(PresentationFile(
                KnotRecord(f"r{i}", phi, True, names))))
            assert parse_presentation(texts[-1]).free_map() == phi
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
                "from biorder.corpus import corpus_entries\n"
                "from biorder.presentation import parse_presentation\n"
                "from biorder.verdict import analyze\n"
                "records = [entry.record for entry in corpus_entries()]\n"
                "records += [parse_presentation(text).record()\n"
                "            for text in sys.stdin.read().split('\\n\\n')]\n"
                "for record in records:\n"
                "    for level in (0, 1):\n"
                "        analyze(record, max_level=level)\n"
                "print(len(records), *[m for m in ('fractions', 'decimal', 'json')\n"
                "                      if m in sys.modules])\n")
        run = subprocess.run([sys.executable, "-I", "-c", code], input="\n\n".join(texts),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{len(corpus_entries()) + 60}\n"

    def test_deeper_levels_inform_but_do_not_fire_rules(self):
        # obstruction rules are pinned to levels 0 and 1; deeper reports are
        # recorded for inspection only
        report = analyze(knot("figure8"), max_level=3)
        assert len(report.levels) == 4
        assert report.verdict.rule == "R4"
        assert set(report.premises) == {"R1", "R2", "R3", "R4"}

    def test_rank4_at_level2_needs_wider_degree_cap(self):
        with pytest.raises(AnalysisError):
            analyze(knot("6_2"), max_level=2)  # degree-20 char poly vs cap 8
        report = analyze(knot("6_2"), max_level=2, max_degree=20)
        assert report.verdict.outcome == NOT_BIORDERABLE
        assert report.levels[2].factors.input.degree == 20

    def test_degree_cap(self):
        with pytest.raises(AnalysisError):
            analyze(knot("6_2"), max_level=1, max_degree=4)


class TestLevelWork:
    """Each level's polynomial comes from M's power sums; the level matrix is
    only built for display, after the degree cap has passed."""

    def test_degree_cap_rejected_before_any_level_work(self, monkeypatch):
        def no_level_matrix(m, k):
            raise AssertionError("level matrix built before the degree check")

        monkeypatch.setattr(verdict, "quotient_actions", no_level_matrix)
        with pytest.raises(AnalysisError,
                           match=r"^characteristic polynomial degree 20 exceeds cap 10$"):
            analyze(knot("6_2"), max_level=3, max_degree=10)

    def test_warm_tables_leave_no_polynomial_work(self, monkeypatch):
        # with the structure tables built, every level matrix is read off M
        # through them: no Lie polynomial is bracketed or eliminated per map
        def no_polynomial_work(*args):
            raise AssertionError("Lie polynomial work on a warm analysis")

        record = knot("6_2")
        expected = analyze(record, max_level=3, max_degree=100)
        monkeypatch.setattr(lcs, "_lie_bracket", no_polynomial_work)
        monkeypatch.setattr(lcs, "_lie_coordinates", no_polynomial_work)
        assert analyze(record, max_level=3, max_degree=100) == expected

    def test_matrix_powers_stop_at_the_rank(self, monkeypatch):
        # level 3 of 6_2 needs tr(M^e) for e up to 240; char(M) needs
        # tr(M^j) for j <= 4, paired from M and M^2, the one product formed
        products = []
        matmul = IntMatrix.__matmul__

        def counting(a, b):
            products.append(a.dim)
            return matmul(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        record = knot("6_2")
        analyze(record, max_level=3, max_degree=100)
        assert products == [record.rank] == [4]

    def test_every_level_is_split_by_the_factor_blocks_of_char_m(self, monkeypatch):
        # levels 1-3 of the corpus fit a frame of level_factors (6_2 and
        # 7_6 a D4 quartic, the trefoil Phi_6, the figure eight an S2
        # quadratic), so no level is built in pieces; with the frames off,
        # every level is
        calls = []
        pieces = verdict.level_pieces
        monkeypatch.setattr(verdict, "level_pieces",
                            lambda blocks, k: calls.append((blocks, k)) or pieces(blocks, k))

        def split_of(report):
            return [(f.poly, f.multiplicity) for f in report.levels[0].factors.factors]

        frames = verdict.level_factors
        for entry in corpus_entries():
            calls.clear()
            split = split_of(analyze(entry.record, max_level=3, max_degree=100))
            assert calls == [], entry.record.name
            assert sorted(frames(split, range(2, 5))) == [2, 3, 4], entry.record.name
        monkeypatch.setattr(verdict, "level_factors", lambda blocks, degrees: {})
        for entry in corpus_entries():
            calls.clear()
            split = split_of(analyze(entry.record, max_level=3, max_degree=100))
            assert calls == [(split, 2), (split, 3), (split, 4)], entry.record.name
        # T(3, 4): char(M) = Phi_6 Phi_12, two blocks, so level 1 is split too
        calls.clear()
        torus = KnotRecord("T(3,4)", torus_monodromy(3, 4), True)
        split = split_of(analyze(torus, max_level=2, max_degree=70))
        assert len(split) == 2
        assert calls == [(split, 2), (split, 3)]
        assert len(pieces(*calls[0])) > 1
        calls.clear()
        analyze(knot("7_6"), max_level=0)
        assert calls == []

    def test_char_poly_runs_once_per_analysis_on_m(self, monkeypatch):
        # every level polynomial is read from char(M), and the automorphism
        # check takes none, with or without the inverse block
        dims = []
        char_poly = exactalg.char_poly
        for module in (biorder, exactalg, freegroup, lcs, verdict):
            monkeypatch.setattr(module, "char_poly",
                                lambda a: dims.append(a.dim) or char_poly(a), raising=False)
        for entry in corpus_entries():
            for record in (entry.record, without_inverse(entry.record)):
                for level in range(lcs.DEGREE_CAP):
                    dims.clear()
                    report = analyze(record, max_level=level, max_degree=100)
                    assert len(report.levels) == level + 1
                    assert dims == [record.rank], (
                        record.name, level, record.phi.inverse_images is None)
                    assert report.levels[0].factors.input == char_poly(abelianized(record.phi))


def _record_maps() -> list[tuple[FreeMap, list[int]]]:
    """(phi, levels) for the corpus, the torus family and 300 seeded random
    automorphisms of rank 2-4: every level 0..3 of degree <= 100."""
    rng = random.Random(107)
    maps = ([entry.record.phi for entry in corpus_entries()]
            + [torus_monodromy(p, q) for p, q in TORUS_PAIRS]
            + [random_automorphism(rng, 2 + i % 3, rng.randint(1, 8)) for i in range(300)])
    return [(phi, [lv for lv in range(lcs.DEGREE_CAP)
                   if lcs.witt_number(phi.rank, lv + 1) <= 100]) for phi in maps]


def _deepest(phi: FreeMap, levels: list[int]):
    return analyze(KnotRecord("r", phi, True), max_level=levels[-1], max_degree=100)


def _whole_level_polys(phi: FreeMap, levels: list[int]) -> list[Poly]:
    return [brandt_level_char_poly(abelianized(phi), lv + 1) for lv in levels]


class TestFactorRecord:
    """One analysis keeps one record of the irreducibles it has found: each
    level piece is divided by them, and each of degree >= 4 gets one Sturm
    chain."""

    def test_each_level_matches_its_whole_polynomial(self):
        multi = 0
        for phi, levels in _record_maps():
            report = _deepest(phi, levels)
            for level, whole in zip(report.levels, _whole_level_polys(phi, levels)):
                assert level.factors == factor_over_Q(whole), (phi, level.level)
            multi += len(report.levels[0].factors.factors) >= 2
        assert multi >= 150

    def test_sample_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for phi, levels in _record_maps()[::12]:
            report = _deepest(phi, levels)
            for level, whole in zip(report.levels, _whole_level_polys(phi, levels)):
                _, expected = sympy.Poly(list(reversed(whole.coeffs)), t).factor_list()
                expected = [(Poly(reversed(f.all_coeffs())).canonical().key(), e)
                            for f, e in expected]
                assert sorted((f.poly.key(), f.multiplicity)
                              for f in level.factors.factors) == sorted(expected), (phi, level.level)

    def test_one_sturm_chain_per_distinct_factor_per_analysis(self, monkeypatch):
        """One chain per distinct factor of degree >= 4; none for a factor
        of degree <= 3, whose counts are read off its discriminant and
        Descartes' rule."""
        built = []
        build = exactalg.SturmChain.build.__func__
        monkeypatch.setattr(exactalg.SturmChain, "build",
                            classmethod(lambda cls, p: built.append(p) or build(cls, p)))
        returning = small = large = 0
        # an S4 block beside x - 1: its orbit polynomials enter the record
        # after char(M) is factored, and must keep the counts found for it
        s4_block = (companion_map([Poly([-1, 1]), Poly([-1, -1, 0, 0, 1])]), [0, 1, 2])
        for phi, levels in _record_maps()[::5] + [s4_block]:
            built.clear()
            report = _deepest(phi, levels)
            found = [f.poly for level in report.levels for f in level.factors.factors]
            assert sorted(built, key=Poly.key) == sorted(
                {f for f in found if f.degree >= 4}, key=Poly.key), phi
            returning += len(found) > len(set(found))
            small += any(2 <= f.degree <= 3 for f in found)
            large += bool(built)
        assert returning >= 30 and small >= 30 and large >= 10


def _corpus_and_census_runs(seed: int, count: int) -> list[tuple[KnotRecord, int, int]]:
    """(record, max_level, max_degree): the corpus at every level of degree
    <= 100, and count census-style maps at the CLI's defaults."""
    rng = random.Random(seed)
    runs = [(entry.record, levels[-1], 100) for entry in corpus_entries()
            for levels in [[lv for lv in range(lcs.DEGREE_CAP)
                            if lcs.witt_number(entry.record.rank, lv + 1) <= 100]]]
    return runs + [(KnotRecord(f"c{i}", random_automorphism(rng, 2 + i % 3, rng.randint(3, 10)),
                               i % 4 != 3), 1, 8) for i in range(count)]


class TestLinearWork:
    """x - 1 and x + 1 are divided off only when f(1) or f(-1) is zero, and
    a linear factor's root counts take no Sturm chain."""

    def test_divisions_match_the_multiplicities(self, monkeypatch):
        calls = Counter()
        divide = exactalg._divide_linear

        def counted(f, root):
            quotient, remainder = divide(f, root)
            calls.update(["division"] + ["failed"] * bool(remainder))
            return quotient, remainder

        built = []
        build = exactalg.SturmChain.build.__func__
        monkeypatch.setattr(exactalg, "_divide_linear", counted)
        monkeypatch.setattr(exactalg.SturmChain, "build",
                            classmethod(lambda cls, p: built.append(p) or build(cls, p)))
        # every level factored: framed levels divide nothing
        monkeypatch.setattr(verdict, "level_factors", lambda blocks, degrees: {})
        multiplicity = 0
        for record, max_level, max_degree in _corpus_and_census_runs(119, 200):
            report = analyze(record, max_level=max_level, max_degree=max_degree)
            multiplicity += sum(f.multiplicity for level in report.levels
                                for f in level.factors.factors
                                if f.poly in (Poly([-1, 1]), Poly([1, 1])))
        assert calls == Counter(division=multiplicity) and multiplicity >= 200
        assert built and all(p.degree >= 4 for p in built)


class TestSmallCofactors:
    """A unit cofactor of degree <= 3 is one irreducible: with x - 1 and
    x + 1 divided off it has no rational root, hence no linear factor."""

    def test_no_yun_pass_and_the_reports_of_the_yun_route(self, monkeypatch):
        small = []
        decompose = exactalg.squarefree_decomposition

        def watched(p):
            if p.degree <= 3 and p.leading == 1 and p.constant in (1, -1):
                small.append(p)
            return decompose(p)

        monkeypatch.setattr(exactalg, "squarefree_decomposition", watched)
        runs = _corpus_and_census_runs(131, 300)
        reports = [analyze(record, max_level=max_level, max_degree=max_degree)
                   for record, max_level, max_degree in runs]
        assert small == []
        # every level factored, every cofactor through Yun's algorithm and
        # every count off a Sturm chain
        monkeypatch.setattr(verdict, "level_factors", lambda blocks, degrees: {})
        monkeypatch.setattr(exactalg, "_factor_canonical", factor_canonical_by_yun)
        monkeypatch.setattr(exactalg, "_root_counts", root_counts_by_sturm_chain)
        for (record, max_level, max_degree), report in zip(runs, reports):
            assert analyze(record, max_level=max_level, max_degree=max_degree) == report, record
        assert len(small) >= 200


def _char_m_shape(phi: FreeMap) -> str | None:
    """"S3" when char(M) is x -+ 1 times a cubic with group S3, "S4", "A4" or
    "D4" when it is one quartic with that certified group, else None."""
    blocks = [(f.poly, f.multiplicity)
              for f in factor_over_Q(char_poly(abelianized(phi))).factors]
    if [(f.degree, e) for f, e in blocks] in ([(1, 1), (3, 1)], [(4, 1)]):
        return exactalg.galois_certificate(blocks[-1][0])
    return None


def _count_calls(monkeypatch, name: str) -> list:
    """The arguments of every call of exactalg's function name from now on."""
    calls = []
    function = getattr(exactalg, name)
    monkeypatch.setattr(exactalg, name, lambda f: calls.append(f) or function(f))
    return calls


def _count_modular(monkeypatch) -> list:
    return _count_calls(monkeypatch, "_factor_squarefree")


def _frames_off(monkeypatch):
    """Every level of an analysis from its pieces, as before any frame."""
    monkeypatch.setattr(verdict, "level_factors", lambda blocks, degrees: {})


def _deepest_levels(record: KnotRecord) -> list[int]:
    return [lv for lv in range(lcs.DEGREE_CAP) if lcs.witt_number(record.rank, lv + 1) <= 100]


class TestOrbitRoute:
    """At levels 1-3, a char(M) with one block f of degree >= 2, of
    multiplicity 1, beside x -+ 1 blocks, whose group galois_certificate
    names, is factored off the Galois orbits of the monomials in f's roots:
    no modular call, no Yun pass past those of level 0, and the reports of
    the modular route."""

    def test_rank_4_level_3_takes_no_modular_route(self, monkeypatch):
        rng = random.Random(137)
        records = {"S3": [], "S4": [], "D4": []}
        while min(map(len, records.values())) < 5:
            phi = random_automorphism(rng, 4, rng.randint(3, 10))
            shape = _char_m_shape(phi)
            if shape in records and len(records[shape]) < 5:
                records[shape].append(KnotRecord(f"r{shape}{len(records[shape])}", phi, True))
        runs = [record for shape in records.values() for record in shape]
        runs += [knot("6_2"), knot("7_6")]
        yun = _count_calls(monkeypatch, "squarefree_decomposition")
        for record in runs:
            analyze(record, max_level=1, max_degree=100)
        level_1 = len(yun)
        yun.clear()
        calls = _count_modular(monkeypatch)
        reports = [analyze(record, max_level=3, max_degree=100) for record in runs]
        assert calls == []
        # levels 2 and 3 are read off the orbits, with no Yun pass
        assert len(yun) == level_1
        assert {_char_m_shape(knot("6_2").phi), _char_m_shape(knot("7_6").phi)} == {"D4"}
        # the oracle factors every level from its pieces
        _frames_off(monkeypatch)
        monkeypatch.setattr(exactalg, "_factor_canonical", factor_canonical_by_yun)
        for record, report in zip(runs, reports):
            assert analyze(record, max_level=3, max_degree=100) == report, record.name
        assert calls  # the Yun route factors the same levels mod p

    def test_an_a3_block_takes_the_modular_route(self, monkeypatch):
        # the monodromy of operation d11 of the deep-l3 benchmark at seed 1:
        # char(M) = (x + 1)(x^3 - x^2 - 2x + 1), whose cubic has group A3
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        record = parse_presentation(
            "name: d11\nfibered: true\ngenerators: a b c d\nmap:\n"
            "  a -> a c\n  b -> c a c\n  c -> b d\n  d -> D\n"
            "inverse:\n  a -> a a B\n  b -> c d\n  c -> b A\n  d -> D\n").record()
        assert char_poly(abelianized(record.phi)) == Poly([1, 1]) * Poly([1, -2, -1, 1])
        calls = _count_modular(monkeypatch)
        report = analyze(record, max_level=3, max_degree=100)
        assert len(calls) == 3
        for level in report.levels:
            _, expected = sympy.Poly(list(reversed(level.factors.input.coeffs)), t).factor_list()
            expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m) for f, m in expected]
            got = [(f.poly.coeffs, f.multiplicity) for f in level.factors.factors]
            assert sorted(got) == sorted(expected), level.level

    def test_level_0_builds_no_orbits(self, monkeypatch):
        certified, keys = [], []
        certificate, orbit = exactalg.galois_certificate, lcs.orbit_polynomial
        monkeypatch.setattr(exactalg, "galois_certificate",
                            lambda f: certified.append(f) or certificate(f))
        monkeypatch.setattr(lcs, "orbit_polynomial",
                            lambda f, group, key: keys.append(key) or orbit(f, group, key))
        rng = random.Random(139)
        runs = [(entry.record, 100) for entry in corpus_entries()]
        runs += [(KnotRecord(f"c{i}", random_automorphism(rng, 2 + i % 3, rng.randint(3, 10)),
                             i % 4 != 3), 8) for i in range(100)]
        for record, max_degree in runs:
            analyze(record, max_level=0, max_degree=max_degree)
        assert certified == keys == []
        for record, max_degree in runs:
            certified.clear()
            analyze(record, max_level=1, max_degree=max_degree)
            assert len(certified) <= 1, record.name
        # one certificate for the analysis, and each orbit built once, also
        # where the x + 1 block puts both signs on an orbit
        s3_beside_minus_1 = KnotRecord("s3", companion_map([Poly([1, 1]), Poly([1, -1, 0, 1])]),
                                       True)
        for record in (knot("6_2"), s3_beside_minus_1):
            certified.clear()
            keys.clear()
            analyze(record, max_level=3, max_degree=100)
            assert len(certified) == 1 and keys and len(keys) == len(set(keys)), record.name

    def test_a_quadratic_block_needs_no_orbits(self, monkeypatch):
        # beside x -+ 1 blocks, a quadratic is cyclotomic (frame A) or a unit
        # with group S2, whose orbit {l^a l'^b, l^b l'^a} has the polynomial
        # x^2 - e^b p_(a-b) x + e^(a+b), e = l l': levels 1-3 build no
        # piece, and no level takes the modular route
        rng = random.Random(149)
        calls = _count_modular(monkeypatch)
        pieces = []
        level_pieces = verdict.level_pieces
        monkeypatch.setattr(verdict, "level_pieces",
                            lambda blocks, k: pieces.append(k) or level_pieces(blocks, k))
        runs = []
        for i in range(200):
            a, e = rng.choice([(a, e) for a in range(-6, 7) for e in (1, -1)
                               if (a, e) not in ((2, 1), (-2, 1), (0, -1))])
            linear = [Poly([rng.choice((1, -1)), 1]) for _ in range(i % 5)]
            record = KnotRecord(f"q{i}", companion_map([Poly([e, a, 1]), *linear]), True)
            runs.append((record, analyze(record, max_level=_deepest_levels(record)[-1],
                                         max_degree=100)))
        assert calls == []
        assert pieces == []
        _frames_off(monkeypatch)
        for record, report in runs[::7]:
            assert analyze(record, max_level=_deepest_levels(record)[-1],
                           max_degree=100) == report, record


# Phi_d for each d with phi(d) <= 4
CYCLOTOMIC = tuple(exactalg.cyclotomic(d) for d in (1, 2, 3, 4, 5, 6, 8, 10, 12))
FRAME_RANKS = {"S2": range(2, 7), "S3": range(3, 7), "S4": range(4, 7), "A4": range(4, 7),
               "D4": range(4, 7), "cyclotomic": range(2, 7), "x-+1": range(2, 7)}


def _irreducible(f: Poly) -> bool:
    return [(g.poly, g.multiplicity) for g in factor_over_Q(f).factors] == [(f, 1)]


def _frame_blocks(rng: random.Random, shape: str, rank: int) -> list[Poly]:
    """Monic unit blocks of total degree rank whose product fits the shape:
    one block of the certified group beside x -+ 1 blocks, cyclotomic blocks
    only, at least one of them nonlinear, or x -+ 1 blocks only."""
    def linear(count):
        return [Poly([rng.choice((1, -1)), 1]) for _ in range(count)]

    if shape == "x-+1":
        return linear(rank)
    if shape == "cyclotomic":
        while True:
            blocks = []
            while (room := rank - sum(f.degree for f in blocks)):
                blocks.append(rng.choice([f for f in CYCLOTOMIC if f.degree <= room]))
            if any(f.degree >= 2 for f in blocks):
                return blocks
    degree = 2 if shape == "S2" else 3 if shape == "S3" else 4
    if shape == "A4":
        return [rng.choice(A4_UNIT_QUARTICS)] + linear(rank - degree)
    for _ in range(1000):
        if shape == "D4":
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            f = Poly([1, a, b, a, 1])
        else:
            f = Poly([rng.choice((1, -1))] + [rng.randint(-6, 6) for _ in range(degree - 1)] + [1])
        if _irreducible(f) and exactalg.galois_certificate(f) == shape:
            return [f] + linear(rank - degree)
    raise AssertionError(f"no {shape} block in 1000 draws")


def _frame_records() -> list[tuple[str, KnotRecord]]:
    """(shape, record): the corpus, then two seeded companion maps of each
    shape at each of its ranks, 2-6."""
    rng = random.Random(151)
    runs = [("corpus", entry.record) for entry in corpus_entries()]
    for shape, ranks in FRAME_RANKS.items():
        for rank in ranks:
            for i in range(2):
                blocks = _frame_blocks(rng, shape, rank)
                runs.append((shape, KnotRecord(f"{shape}-{rank}-{i}", companion_map(blocks), True)))
    return runs


def _framed_levels(record: KnotRecord) -> list[int]:
    """The levels 1-3 of degree <= 100 at the record's rank."""
    return [lv for lv in _deepest_levels(record) if lv >= 1]


class TestFrames:
    """Levels 1-3 read off the eigenvalue classes of char(M), on the
    corpus and on maps of every shape the frames take, ranks 2-6."""

    def test_the_class_product_is_the_level_polynomial(self):
        framed = Counter()
        for shape, record in _frame_records():
            m = abelianized(record.phi)
            blocks = [(f.poly, f.multiplicity) for f in factor_over_Q(char_poly(m)).factors]
            levels = _framed_levels(record)
            factors = lcs.level_factors(blocks, [lv + 1 for lv in levels])
            assert sorted(factors) == [lv + 1 for lv in levels], record.name
            for k, found in factors.items():
                assert math.prod((q ** e for q, e in found.items()), start=Poly([1])) \
                    == brandt_level_char_poly(m, k), (record.name, k)
                framed[shape] += 1
        assert set(framed) == {"corpus", *FRAME_RANKS} and min(framed.values()) >= 6, framed

    def test_reports_of_the_general_route_with_no_division(self, monkeypatch):
        runs = _frame_records()
        counts = Counter()

        def counting(name, fn):
            return lambda *args: counts.update([name]) or fn(*args)

        monkeypatch.setattr(Poly, "div_z", counting("div_z", Poly.div_z))
        for name in ("squarefree_decomposition", "_factor_squarefree"):
            monkeypatch.setattr(exactalg, name, counting(name, getattr(exactalg, name)))
        pieces = []
        level_pieces = verdict.level_pieces
        monkeypatch.setattr(verdict, "level_pieces",
                            lambda blocks, k: pieces.append(k) or level_pieces(blocks, k))
        reports = []
        for _, record in runs:
            # level 0 alone, then with the framed levels: these add no
            # piece, division, Yun pass or modular factoring
            analyze(record, max_level=0, max_degree=100)
            below = Counter(counts)
            reports.append(analyze(record, max_level=_framed_levels(record)[-1],
                                   max_degree=100))
            assert counts == below + below, record.name
            counts.clear()
        assert pieces == []
        _frames_off(monkeypatch)
        for (_, record), report in zip(runs, reports):
            assert analyze(record, max_level=len(report.levels) - 1,
                           max_degree=100) == report, record.name

    def test_sample_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for _, record in _frame_records()[::3]:
            report = analyze(record, max_level=_framed_levels(record)[-1], max_degree=100)
            for level in report.levels[1:]:
                _, expected = sympy.Poly(list(reversed(level.factors.input.coeffs)),
                                         t).factor_list()
                expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m)
                            for f, m in expected]
                got = [(f.poly.coeffs, f.multiplicity) for f in level.factors.factors]
                assert sorted(got) == sorted(expected), (record.name, level.level)

    def test_a4_quartics_take_the_orbit_route(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        calls = _count_modular(monkeypatch)
        runs = [(KnotRecord("a4", companion_map([f]), True), 3) for f in A4_UNIT_QUARTICS]
        runs += [(KnotRecord("a4r", companion_map([f, Poly([r, 1])]), True), 2)
                 for f in A4_UNIT_QUARTICS for r in (1, -1)]
        for record, level in runs:
            report = analyze(record, max_level=level, max_degree=100)
            for lv in report.levels:
                _, expected = sympy.Poly(list(reversed(lv.factors.input.coeffs)), t).factor_list()
                expected = [(Poly(reversed(f.all_coeffs())).canonical().coeffs, m)
                            for f, m in expected]
                got = [(f.poly.coeffs, f.multiplicity) for f in lv.factors.factors]
                assert sorted(got) == sorted(expected), (record.phi, lv.level)
        assert calls == []

    def test_a_wrong_witt_number_changes_a_report(self, monkeypatch):
        record = knot("6_2")
        expected = analyze(record, max_level=3, max_degree=100)
        witt = lcs._witt_vectors
        monkeypatch.setattr(lcs, "_witt_vectors",
                            lambda n, k: tuple((a, 2 * w) for a, w in witt(n, k)))
        assert analyze(record, max_level=3, max_degree=100) != expected

    def test_an_s2_certificate_on_a_cyclotomic_quadratic_is_caught(self, monkeypatch):
        # x^2 + x + 1 has the roots w, w^2, and l^3 = l'^3 = 1: its "orbit"
        # of (3, 0) is (x - 1)^2, which has no root counts
        f = Poly([1, 1, 1])
        record = KnotRecord("phi3", companion_map([f, Poly([-1, 1])]), True)
        expected = analyze(record, max_level=3, max_degree=100)
        _frames_off(monkeypatch)
        assert analyze(record, max_level=3, max_degree=100) == expected
        monkeypatch.undo()
        certificate = exactalg.galois_certificate
        monkeypatch.setattr(exactalg, "galois_certificate",
                            lambda g: "S2" if g == f else certificate(g))
        with pytest.raises(exactalg.NonSquarefreeError):
            analyze(record, max_level=3, max_degree=100)


class TestNoStateAcrossAnalyses:
    """The record lives and dies with one analysis."""

    def test_same_record_twice_does_the_same_work(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        build = exactalg.SturmChain.build.__func__
        monkeypatch.setattr(exactalg.SturmChain, "build",
                            classmethod(lambda cls, p: calls.update(["sturm"]) or build(cls, p)))
        for name in ("squarefree_decomposition", "_factor_squarefree"):
            monkeypatch.setattr(exactalg, name, counting(name, getattr(exactalg, name)))
        for record in (knot("6_2"), knot("7_6"),
                       KnotRecord("r", random_automorphism(random.Random(5), 4, 6), True)):
            counts = []
            for _ in range(2):
                calls.clear()
                analyze(record, max_level=3, max_degree=100)
                counts.append(dict(calls))
            assert counts[0] == counts[1] and counts[0]["sturm"] > 0, record.name

    def test_order_of_analyses_changes_no_report(self):
        rng = random.Random(109)
        records = [knot("6_2"), knot("7_6")] + [
            KnotRecord(f"r{i}", random_automorphism(rng, 2 + i % 3, rng.randint(2, 8)), True)
            for i in range(6)]
        once = [analyze(record, max_level=3, max_degree=100) for record in records]
        for i, j in itertools.permutations(range(len(records)), 2):
            assert analyze(records[i], max_level=3, max_degree=100) == once[i]
            assert analyze(records[j], max_level=3, max_degree=100) == once[j]


class TestCombineRules:
    def test_inconsistent_premises_abort(self):
        with pytest.raises(InconsistentPremisesError):
            combine_rules({"R1": True, "R2": False, "R3": False, "R4": True}, 1)

    def test_rule_order_r1_before_r2(self):
        v = combine_rules({"R1": True, "R2": True, "R3": False, "R4": False}, 1)
        assert v.rule == "R1"

    def test_r4_checked_before_r3(self):
        v = combine_rules({"R1": False, "R2": False, "R3": True, "R4": True}, 1)
        assert v.rule == "R4"

    def test_fallback(self):
        v = combine_rules({"R1": False, "R2": False, "R3": None, "R4": False}, 0)
        assert v.outcome == NO_OBSTRUCTION_FOUND
        assert v.level == 0
        assert v.rule is None
