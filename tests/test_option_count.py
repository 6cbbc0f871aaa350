"""Ratchet on the number of settable values in designkit.

Every defaulted parameter (positional or keyword-only) of every ``def``
and every dataclass field with a default is a value a caller can set.
A value only tests set belongs in a constant, so the count may fall but
not rise: a new option needs a caller outside ``tests/`` that sets it,
and the bound below moves with it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "designkit"

MAX_DEFAULTED = 102


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(tree):
    """Names of the defaulted parameters and dataclass fields in ``tree``;
    a bare ``field(repr=False)`` placeholder sets no default."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args
            names += [a.arg for a in args[len(args) - len(node.args.defaults):]]
            names += [a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None):
                    continue
                value = stmt.value
                placeholder = (isinstance(value, ast.Call)
                               and getattr(value.func, "id", None) == "field"
                               and not any(k.arg in ("default", "default_factory")
                                           for k in value.keywords))
                if not placeholder:
                    names.append(stmt.target.id)
    return names


def test_counts_defaults_and_fields():
    tree = ast.parse('''
from dataclasses import dataclass, field
def f(a, b=1, *, c=2, d): pass
@dataclass
class R:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w: object = field(repr=False)
    CONST = 3
''')
    assert sorted(_defaulted(tree)) == ["b", "c", "y", "z"]


def test_defaulted_values_do_not_grow():
    count = sum(len(_defaulted(ast.parse(path.read_text(encoding="utf-8"))))
                for path in sorted(SRC.glob("*.py")))
    assert count <= MAX_DEFAULTED, (
        f"{count} defaulted parameters and fields in src/designkit, above {MAX_DEFAULTED}: "
        "a value that only tests set belongs in a constant")
