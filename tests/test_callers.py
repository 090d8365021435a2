"""Every function, class and method of the library has a caller.

A definition in `src/bscomb` (dunder names aside) passes when its name
appears in at least one of these places:
- in `src/bscomb` outside its own definition, as a name, an attribute or
  an import (a mention in a docstring or comment does not count);
- among the public names of the package's `_EXPORTS`;
- in `bench/*.py`, as a name, an attribute or an import, or as a part of a
  dotted string in `bench/spans.py`'s `TRACED`;
- among the imports of `tests/test_acceptance.py`.

The check goes by name: a name passes when it is used outside one of its
definitions, and then every definition of that name passes.  So it cannot
see a dead method whose name another object also uses: a method `apply`,
`key`, `degree` or `is_zero` passes as long as some other `apply`, `key`,
`degree` or `is_zero` is called.
"""

import ast
from collections import Counter
from pathlib import Path

import bscomb

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used(tree: ast.AST) -> Counter:
    """How often each name occurs in tree as a name, an attribute or an import."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def _traced_parts(tree: ast.Module) -> set[str]:
    """The dot-separated parts of every string in the TRACED assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {part for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for part in c.value.split(".")}
    raise AssertionError("bench/spans.py assigns no TRACED")


def _outside_callers() -> set[str]:
    names = {name for names in bscomb._EXPORTS.values() for name in names}
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _tree(path)
        names |= set(_used(tree))
        if path.name == "spans.py":
            names |= _traced_parts(tree)
    acceptance = _tree(ROOT / "tests" / "test_acceptance.py")
    names |= {a.name for node in acceptance.body if isinstance(node, ast.ImportFrom)
              for a in node.names}
    return names


def uncalled() -> list[str]:
    """module:name of every definition in src/bscomb with no caller."""
    trees = {p.stem: _tree(p) for p in sorted((ROOT / "src" / "bscomb").glob("*.py"))}
    in_src = sum((_used(tree) for tree in trees.values()), Counter())
    outside = _outside_callers()
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                definitions.setdefault(node.name, []).append((module, node))
    missing = []
    for name, defs in definitions.items():
        # a use inside a definition of the name itself, such as recursion,
        # is no caller of that definition
        if name in outside or any(in_src[name] > _used(node)[name] for _, node in defs):
            continue
        missing += [f"{module}:{name}" for module, _ in defs]
    return sorted(missing)


def test_every_definition_has_a_caller():
    assert uncalled() == []
