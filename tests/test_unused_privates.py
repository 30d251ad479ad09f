"""Every module-level private function or class in src/torsionlab is used.

An AST scan: a top-level `def _name` or `class _name` must be referenced
somewhere in the package, as a loaded name or an attribute, outside its own
definition.  A helper that only its own body (or nothing) mentions is dead
and gets deleted rather than kept around.  Dunder names are skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> Counter:
    """How often each identifier is read below node, as a name or attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unused_privates(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) for each top-level private def or class that no
    module references outside its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                found.append((module, node.name, node.lineno))
    return sorted(found)


def test_scan_finds_private_helpers_only_their_own_body_uses():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Dead:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _used()\n"
        ),
        "b.py": "from . import a\nclass _Kept:\n    pass\nx = a._Kept\n",
    }
    assert unused_privates(sources) == [("a.py", "_Dead", 5), ("a.py", "_recursive", 3)]


def test_no_private_helper_in_the_package_is_unreferenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_privates(sources) == []
