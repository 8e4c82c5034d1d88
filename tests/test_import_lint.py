"""Import lint: no module under ``src/`` or ``tests/`` imports what it never uses.

A stdlib-AST scan of every non-``__init__`` module. A top-level import
(a statement in the module body, or in a module-level ``if``/``try``
block) binds names; a bound name counts as used when it appears as a
name anywhere in the module, inside a string annotation, or in the
module's ``__all__``. ``__init__`` modules are skipped: their imports
are the package's re-exports. ``from __future__`` imports are
directives, not bindings.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

REPO = Path(__file__).resolve().parent.parent
LINTED_DIRS = ("src", "tests")


def _top_level_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _top_level_imports(node.body)
            for handler in getattr(node, "handlers", []):
                yield from _top_level_imports(handler.body)
            yield from _top_level_imports(node.orelse)
            yield from _top_level_imports(getattr(node, "finalbody", []))


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    yield arg.annotation
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def unused_imports(source: str) -> List[str]:
    """The top-level names ``source`` imports and never uses, in order."""
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in _top_level_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                unused.append(bound)
    return unused


def test_lint_fires_on_a_planted_source():
    planted = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import TYPE_CHECKING, List\n"
        "from json import dumps as to_json\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal, Context\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    import array\n"
        "__all__ = ['to_json']\n"
        "@dataclass\n"
        "class C:\n"
        "    xs: List[int]\n"
        "def f(d: 'Decimal') -> None:\n"
        "    import re\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(planted) == ["math", "field", "Context", "np", "array"]


def test_no_unused_imports():
    found = []
    for top in LINTED_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(REPO)}: {name}")
    assert found == [], "unused top-level imports:\n" + "\n".join(found)
