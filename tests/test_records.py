"""The package's records: frozen-record value semantics on slotted classes,
checked against a frozen dataclass with the same fields, and an import of the
CLI that loads no module generating such methods."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biorder import freegroup
from biorder._record import Record
from biorder.corpus import CorpusEntry
from biorder.exactalg import Factor, FactorReport, IntMatrix, Poly, SturmChain
from biorder.freegroup import (FreeMap, GeneratorRangeError, RankMismatchError, Word,
                               identity_map)
from biorder.lcs import QuotientAction, lyndon_basis
from biorder.magnus import LowestTerm
from biorder.orderprops import (ProbeConfig, ProbeResult, WeakComparabilityResult,
                                _Drawn)
from biorder.presentation import KnotRecord, PresentationFile
from biorder.verdict import AnalysisReport, LevelReport, Verdict
from helpers import W, identity_matrix

SRC = Path(__file__).resolve().parents[1] / "src"

M2 = IntMatrix(((2, 1), (1, 1)))
P = Poly([1, -3, 1])
FACTOR = Factor(P, 1, 2, 0, 2)
REPORT = FactorReport(P, 1, (FACTOR,))
BASIS = lyndon_basis(2, 1)
ACTION = QuotientAction(BASIS, M2)
KNOT = KnotRecord("k", identity_map(2), True, ("x", "y"))
VERDICT = Verdict("BIORDERABLE", 0, "R4", "all roots positive")

# Each frozen record with two sets of constructor keywords that differ.
FROZEN = [
    (IntMatrix, dict(rows=((1, 2), (3, 4))), dict(rows=((1,),))),
    (Factor, dict(poly=P, multiplicity=1, positive_real_roots=2, negative_real_roots=0,
                  real_roots=2),
     dict(poly=P, multiplicity=2, positive_real_roots=2, negative_real_roots=0,
          real_roots=2)),
    (FactorReport, dict(input=P, content=1, factors=(FACTOR,)),
     dict(input=P * 3, content=3, factors=(FACTOR,))),
    (SturmChain, dict(polys=(P, Poly([-3, 2]))), dict(polys=(Poly([-1, 1]), Poly([1])))),
    (Word, dict(rank=2, letters=((0, 1), (1, -1))),
     dict(rank=3, letters=((0, 1), (1, -1)))),
    (FreeMap, dict(rank=2, images=(W("y"), W("x")), inverse_images=None),
     dict(rank=2, images=(W("y"), W("x")), inverse_images=(W("y"), W("x")))),
    (QuotientAction, dict(basis=BASIS, matrix=M2),
     dict(basis=BASIS, matrix=identity_matrix(2))),
    (LowestTerm, dict(degree=2, part=(((0, 1), 1), ((1, 0), -1))),
     dict(degree=2, part=(((0, 1), -1), ((1, 0), 1)))),
    (ProbeConfig, dict(seed=1, samples=5, max_word_length=4, search_bound=2),
     dict(seed=2, samples=5, max_word_length=4, search_bound=2)),
    (ProbeResult, dict(name="subgroup", trials=5, failures=(), warnings=()),
     dict(name="subgroup", trials=5, failures=(), warnings=("w",))),
    (WeakComparabilityResult, dict(status="WITNESS_FOUND", witness=W("e"), checked=1),
     dict(status="WITNESS_FOUND", witness=W("e"), checked=2)),
    (PresentationFile, dict(knot=KNOT, comments=()), dict(knot=KNOT, comments=("# c",))),
    (KnotRecord, dict(name="k", phi=identity_map(2), fibered=True, generator_names=("x", "y")),
     dict(name="k", phi=identity_map(2), fibered=True, generator_names=("u", "v"))),
    (LevelReport, dict(level=0, action=ACTION, factors=REPORT),
     dict(level=1, action=ACTION, factors=REPORT)),
    (Verdict, dict(outcome="BIORDERABLE", level=0, rule="R4", justification="j"),
     dict(outcome="BIORDERABLE", level=None, rule="R4", justification="j")),
    (AnalysisReport, dict(record=KNOT, levels=(), premises={"R1": False}, verdict=VERDICT),
     dict(record=KNOT, levels=(), premises={"R1": None}, verdict=VERDICT)),
    (CorpusEntry, dict(record=KNOT, expected_outcome="BIORDERABLE",
                       expected_rule="R4", expected_level=0),
     dict(record=KNOT, expected_outcome="BIORDERABLE",
          expected_rule="R4", expected_level=1)),
]

# The defaults of the fields that have one, as constructed without them.
DEFAULTS = {
    FreeMap: dict(inverse_images=None),
    ProbeConfig: dict(seed=0, samples=200, max_word_length=10, search_bound=4),
    ProbeResult: dict(warnings=()),
    PresentationFile: dict(comments=()),
    KnotRecord: dict(generator_names=("a", "b")),
}


def _twin(cls, kwargs):
    """A frozen dataclass named like cls, holding the same field values."""
    twin = dataclasses.make_dataclass(cls.__name__, list(kwargs), frozen=True)
    return twin(**kwargs)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return type(e)


def test_every_record_is_listed():
    modules = {sys.modules[f"biorder.{m}"] for m in (
        "exactalg", "freegroup", "lcs", "magnus", "orderprops", "presentation",
        "verdict", "corpus")}
    found = {v for m in modules for v in vars(m).values()
             if isinstance(v, type) and issubclass(v, Record) and v is not Record}
    assert found == {cls for cls, _, _ in FROZEN}


@pytest.mark.parametrize("cls, a, b", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_record_semantics(cls, a, b):
    x, y, z, twin = cls(**a), cls(**a), cls(**b), _twin(cls, a)
    assert cls.__slots__ == tuple(a)
    assert not hasattr(x, "__dict__")
    assert x == y and not x != y
    assert x != z and not x == z
    assert _hash_or_error(x) == _hash_or_error(y) == _hash_or_error(twin)
    if _hash_or_error(x) is not TypeError:
        assert len({x, y, z}) == 2
    assert x != twin and twin != x
    assert x.__eq__(twin) is NotImplemented
    if cls is not Word:
        assert repr(x) == repr(twin)
    for name in a:
        assert getattr(x, name) is a[name]
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(z, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert x == y


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[c.__name__ for c in DEFAULTS])
def test_keyword_construction_keeps_defaults(cls):
    required = next(a for c, a, _ in FROZEN if c is cls)
    required = {k: v for k, v in required.items() if k not in DEFAULTS[cls]}
    made = cls(**required)
    for name, default in DEFAULTS[cls].items():
        assert getattr(made, name) == default


def test_drawn_tally_stays_mutable():
    drawn = _Drawn()
    assert drawn.count == 0
    drawn.count += 3
    assert _Drawn(count=3).count == drawn.count == 3
    assert not hasattr(drawn, "__dict__")


def test_constructor_checks():
    with pytest.raises(GeneratorRangeError, match="^generator index 2 out of range for rank 2$"):
        Word(2, ((0, 1), (2, -1)))
    with pytest.raises(ValueError, match="^letter sign must be \\+1 or -1, got 0$"):
        Word(2, ((0, 0),))
    with pytest.raises(ValueError, match="^word is not freely reduced$"):
        Word(2, ((1, 1), (0, -1), (0, 1)))
    with pytest.raises(ValueError, match="^matrix dimension must be >= 1$"):
        IntMatrix(())
    with pytest.raises(ValueError, match="^matrix must be square$"):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError, match="^need exactly one image per generator$"):
        FreeMap(2, (W("x"),))
    with pytest.raises(RankMismatchError, match="^image word has wrong rank$"):
        FreeMap(2, (W("x"), W("b", "abc")))
    with pytest.raises(ValueError, match="^need exactly one inverse image per generator$"):
        FreeMap(2, (W("y"), W("x")), (W("y"),))
    with pytest.raises(RankMismatchError, match="^inverse image word has wrong rank$"):
        FreeMap(2, (W("y"), W("x")), (W("y"), W("b", "abc")))


def test_cli_import_loads_no_method_generating_module():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import biorder.cli; "
            "print(biorder.cli.__file__); "
            "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    where, loaded = run.stdout.split("\n")[:2]
    assert Path(where).resolve().is_relative_to(SRC)
    assert loaded == ""
    for path in sorted((SRC / "biorder").glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path


def test_input_layers_import_no_algebra():
    """Words, files and probes come before the algebra: importing presentation,
    corpus and orderprops (and so freegroup and magnus) in a fresh interpreter
    loads none of exactalg, lcs and verdict."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "import biorder.presentation, biorder.corpus, biorder.orderprops\n"
            "print(*sorted(m for m in sys.modules if m in "
            "('biorder.exactalg', 'biorder.lcs', 'biorder.verdict')))")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "\n"


# A record that binds through the base alone, and one with a `_defaults` entry.
CONTRACT = [
    (Verdict, ("BIORDERABLE", 0, "R4", "j")),
    (ProbeResult, ("subgroup", 5, (), ("w",))),
]


@pytest.mark.parametrize("cls, values", CONTRACT, ids=[c.__name__ for c, _ in CONTRACT])
def test_constructor_binds_by_position_or_keyword(cls, values):
    by_position = cls(*values)
    assert by_position._values() == values
    assert cls(**dict(reversed(list(zip(cls.__slots__, values))))) == by_position
    assert cls(*values[:2], **dict(zip(cls.__slots__[2:], values[2:]))) == by_position


@pytest.mark.parametrize("cls, values", CONTRACT, ids=[c.__name__ for c, _ in CONTRACT])
def test_constructor_rejects_what_a_signature_would(cls, values):
    name, first, last = cls.__name__, cls.__slots__[0], cls.__slots__[-1]
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing required arguments: '{first}'$"):
        cls(**dict(zip(cls.__slots__[1:], values[1:])))
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected keyword argument 'extra'$"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes 4 positional arguments but 5 were given$"):
        cls(*values, None)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got multiple values for argument '{first}'$"):
        cls(*values[:-1], **{first: values[0]})
    with pytest.raises(TypeError, match=rf"^{name}\(\) got multiple values for argument '{last}'$"):
        cls(*values, **{last: values[-1]})


def test_defaults_fill_only_what_is_left_out():
    assert ProbeResult("subgroup", 5, ()).warnings == ()
    assert ProbeResult("subgroup", 5, (), ("w",)).warnings == ("w",)
    with pytest.raises(TypeError, match=r"^ProbeResult\(\) missing required arguments: "
                                        r"'trials', 'failures'$"):
        ProbeResult("subgroup")
    with pytest.raises(TypeError, match=r"^Verdict\(\) missing required arguments: "
                                        r"'justification'$"):
        Verdict("BIORDERABLE", 0, "R4")


# The declared defaults; KnotRecord's () stands for names chosen by rank.
SIGNATURE_DEFAULTS = {**{cls: DEFAULTS[cls] for cls in DEFAULTS if cls is not KnotRecord},
                      KnotRecord: dict(generator_names=())}


@pytest.mark.parametrize("cls", list(SIGNATURE_DEFAULTS),
                         ids=[c.__name__ for c in SIGNATURE_DEFAULTS])
def test_signature_shows_the_defaults(cls):
    """A record that checks its arguments declares its defaults in its own
    `__init__`, whose signature shows them; the others declare them in the
    class body, which the base keeps as `_defaults`."""
    if "__init__" not in vars(cls):
        assert cls._defaults == SIGNATURE_DEFAULTS[cls]
        return
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__slots__
    assert {name: p.default for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == SIGNATURE_DEFAULTS[cls]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters.values())


def _binds_a_slot(node) -> bool:
    """object.__setattr__, or a descriptor's __set__."""
    return isinstance(node, ast.Attribute) and (
        node.attr == "__set__" or (node.attr == "__setattr__"
                                   and isinstance(node.value, ast.Name)
                                   and node.value.id == "object"))


def _reads_setters(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_setters"


def test_only_the_base_binds_fields():
    """Checked records end in the base's constructor and the rest have none of
    their own.  Only the base collects the slots' setters, and no module sets
    slots with object.__setattr__: freegroup._word, the unchecked constructor
    of a Word, binds them with the setters the base collected for Word."""
    assert {cls for cls, _, _ in FROZEN if "__init__" in vars(cls)} == {
        Word, IntMatrix, FreeMap, ProbeConfig, KnotRecord}
    binds, readers = {}, {}
    for path in sorted((SRC / "biorder").glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            for found, test in ((binds, _binds_a_slot), (readers, _reads_setters)):
                if count := sum(map(test, ast.walk(scope))):
                    found[path.name, getattr(scope, "name", None)] = count
    assert binds == {("_record.py", None): 1, ("_record.py", "__init_subclass__"): 1}
    assert readers == {("_record.py", None): 2, ("_record.py", "__init_subclass__"): 1,
                       ("_record.py", "__init__"): 1, ("freegroup.py", None): 1}
    assert freegroup._bind_rank.__self__ is vars(Word)["rank"]
    assert freegroup._bind_letters.__self__ is vars(Word)["letters"]


def test_only_main_writes_in_the_cli():
    """The commands return their output; in cli.py only `main` and the
    parser's usage error name print, sys.stdout or sys.stderr."""
    tree = ast.parse((SRC / "biorder" / "cli.py").read_text())
    scopes = []  # (name, node): every function and method, and the other statements
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{getattr(item, 'name', None)}", item)
                       for item in node.body]
        else:
            scopes.append((getattr(node, "name", None), node))
    writers = set()
    for name, scope in scopes:
        for node in ast.walk(scope):
            if ((isinstance(node, ast.Name) and node.id == "print")
                    or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                        and isinstance(node.value, ast.Name) and node.value.id == "sys")):
                writers.add(name)
    assert writers == {"main", "_Parser.error"}


def test_exactalg_has_one_polynomial_type():
    """(Z/m)[x] arithmetic is Poly arithmetic followed by `% m`: exactalg
    defines no `_gf_*` helper on coefficient tuples and no `_sym_poly`."""
    tree = ast.parse((SRC / "biorder" / "exactalg.py").read_text())
    names = set()  # every function, class and assigned name, at any depth
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    second = {name for name in names if name.startswith("_gf_") or name == "_sym_poly"}
    assert second == set() and "_divmod_mod" in names


class Pair(Record):
    left: int
    right: str = "r"


def test_annotations_are_the_fields_and_values_the_defaults():
    assert Pair.__slots__ == ("left", "right")
    assert Pair._defaults == {"right": "r"}
    assert Pair(1).right == Pair(left=1).right == "r"
    assert Pair(1) == Pair(left=1) == Pair(1, "r") != Pair(1, "s")
    assert not hasattr(Pair(1), "__dict__")


def test_record_modules_keep_annotations_as_a_mapping():
    """A record's fields are its class body's __annotations__, which every
    Python version keeps as a mapping under `from __future__ import
    annotations`; no record names its slots or defaults a second time."""
    with_records = set()
    for path in sorted((SRC / "biorder").glob("*.py")):
        tree = ast.parse(path.read_text())
        records = [node for node in tree.body if isinstance(node, ast.ClassDef)
                   and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)]
        if not records:
            continue
        with_records.add(path.stem)
        assert any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                   and any(a.name == "annotations" for a in node.names)
                   for node in tree.body), path
        for record in records:
            assigned = {target.id for node in record.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)}
            assert not assigned & {"__slots__", "_defaults"}, (path, record.name)
    assert with_records == {"corpus", "exactalg", "freegroup", "lcs", "magnus",
                            "orderprops", "presentation", "verdict"}
