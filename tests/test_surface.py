"""The package's public surface: every public function, class and method
defined in src/biorder is reached from `cli.main`, named by the benchmark, or
kept below for a stated reason.  Everything is read with `ast`, so the
benchmark's files are read as text and never imported.

Reachability over-approximates: a name reaches what it resolves to through the
module's own definitions and relative imports, `module.attr` reaches that
module's definition, and any `.attr` reaches every method called `attr` of a
reached class.  Statements at module level run at import, so they are roots
beside `cli.main`, and a reached class reaches its bases, metaclass,
decorators, class body and special methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biorder"

# Public names that `cli.main` cannot reach and the benchmark does not name.
KEEP = {
    "freegroup.power": "a word operation of the free group, beside multiply, invert "
                       "and commutator; the Nielsen moves of the tests are built with it",
    "magnus.TrivialElementError": "raised by magnus.is_infinitesimal, a traced name",
    "presentation.PresentationFile.free_map": "the benchmark's workloads._free_map calls "
                                              "it as a method, which _bench_names cannot see",
    "presentation.serialize_presentation": "README: canonical files round-trip "
                                           "through parse_presentation and it",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules):
    """Qualified name -> node of every top-level function and class and every
    method; (module, local name) -> qualified target of each relative import."""
    defs, aliases = {}, {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{mod}.{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    aliases[mod, alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module else alias.name)
    return defs, aliases


def _reached(modules, defs, aliases) -> set[str]:
    attrs: set[str] = set()  # every attribute name read in reached code

    def resolve(mod, name):
        if f"{mod}.{name}" in defs:
            return f"{mod}.{name}"
        target = aliases.get((mod, name))
        if target is None or target in modules:
            return target
        return resolve(*target.rsplit(".", 1))

    def visit(mod, node) -> list[str]:
        found = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.append(resolve(mod, n.id))
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                if isinstance(n.value, ast.Name) and resolve(mod, n.value.id) in modules:
                    found.append(f"{resolve(mod, n.value.id)}.{n.attr}")
        return [q for q in found if q in defs]

    todo = ["cli.main"]
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.ImportFrom)):
                todo += visit(mod, node)
    reached: set[str] = set()
    while todo:
        while todo:
            q = todo.pop()
            if q in reached:
                continue
            reached.add(q)
            mod, node = q.split(".")[0], defs[q]
            if not isinstance(node, ast.ClassDef):
                todo += visit(mod, node)
                continue
            for part in [*node.bases, *node.keywords, *node.decorator_list, *node.body]:
                if isinstance(part, ast.FunctionDef):
                    for decorator in part.decorator_list:
                        todo += visit(mod, decorator)
                    if part.name.startswith("__"):
                        todo.append(f"{q}.{part.name}")
                else:
                    todo += visit(mod, part)
        todo = [q for q in defs if q.count(".") == 2 and q not in reached
                and q.rsplit(".", 1)[0] in reached and q.rsplit(".", 1)[1] in attrs]
    return reached


def _bench_names(modules) -> set[str]:
    """The string keys of bench/tracer.py's TARGETS, and every `module.attr`
    of a program module that bench/workloads.py reads."""
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    targets = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    names = {key.value for key in targets.keys if isinstance(key, ast.Constant)}
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    return names | {f"{n.value.id}.{n.attr}" for n in ast.walk(workloads)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in modules}


def test_every_public_name_is_run_named_or_kept():
    modules = _modules()
    defs, aliases = _definitions(modules)
    public = {q for q in defs if not any(part.startswith("_") for part in q.split(".")[1:])}
    reached = _reached(modules, defs, aliases)
    assert {"cli.main", "verdict.analyze", "exactalg.SturmChain.build"} <= reached
    assert public - reached - _bench_names(modules) == set(KEEP)
